"""Property-based tests: peerview ordering and expiry invariants.

A model-based test drives a PeerView with random upsert/remove/expire
operations and checks it against a plain-dict reference model.
"""

import bisect
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.ids.intern import IdInternTable
from repro.rendezvous.peerview import PeerView

LOCAL = 500


def adv(n):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        route_hint=f"tcp://h{n}:1",
    )


def as_int(peer_id):
    return int.from_bytes(peer_id.unique_value, "big")


# a small id space, so upserts refresh live entries as often as they add
member = st.one_of(st.integers(0, 40), st.just(LOCAL))
ops = st.lists(
    st.one_of(
        # several upserts at one ``now``: same-timestamp refreshes
        st.tuples(st.just("upsert"), st.lists(member, min_size=1, max_size=4)),
        st.tuples(st.just("remove"), member),
        st.tuples(st.just("expire"), st.floats(1.0, 100.0)),
    ),
    min_size=0,
    max_size=80,
)


@given(ops)
def test_peerview_matches_reference_model(operations):
    view = PeerView(adv(LOCAL))
    model = {}  # int id -> (advertisement, stamp), in refresh order
    inserted = []  # int ids of the members, in first-insertion order
    now = 0.0
    pve = 50.0
    for op in operations:
        now += 1.0
        if op[0] == "upsert":
            for n in op[1]:
                sent = adv(n)
                view.upsert(sent, now)
                if n != LOCAL:
                    if model.pop(n, None) is None:
                        inserted.append(n)
                    model[n] = (sent, now)
        elif op[0] == "remove":
            n = op[1]
            removed = view.remove(
                PeerID.from_int(NET_PEER_GROUP_ID, n), now
            )
            assert removed == (n in model)
            if model.pop(n, None) is not None:
                inserted.remove(n)
        else:
            now += op[1]
            # exactly the model's dead set, oldest refresh first
            dead = [n for n, (_, t) in model.items() if now - t > pve]
            assert [as_int(p) for p in view.expire(now, pve)] == dead
            for n in dead:
                del model[n]
                inserted.remove(n)

        # invariants after every operation
        expected_ids = sorted(model.keys() | {LOCAL})
        actual_ids = [as_int(p) for p in view.ordered_ids()]
        assert actual_ids == expected_ids
        assert view.size == len(model)
        assert view.member_count() == len(model) + 1
        # the entry table is in refresh order, each member read back as
        # the latest advertisement and its stamp; known_ids keeps
        # first-insertion order
        id_of = view.interner.id_of
        assert [as_int(id_of(key)) for key in view._entries] == list(model)
        stamps = [view._stamps[key] for key in view._entries]
        assert stamps == sorted(stamps)
        for key in view._entries:
            entry = view.get_by_key(key)
            sent, stamp = model[as_int(id_of(key))]
            assert entry.adv is sent and entry.last_refreshed == stamp
        assert [as_int(p) for p in view.known_ids()] == inserted


VIEWS = 3
shared_ops = st.lists(
    st.tuples(
        st.integers(0, VIEWS - 1),
        st.one_of(
            st.tuples(st.just("upsert"), st.integers(0, 40)),
            st.tuples(st.just("remove"), st.integers(0, 40)),
            st.tuples(st.just("expire"), st.floats(1.0, 100.0)),
        ),
    ),
    max_size=120,
)


@given(shared_ops)
def test_views_on_one_table_hold_its_tokens(operations):
    """Several views on one intern table (the r = 580 layout) against
    the same views on private tables: every ordered-list slot is the
    shared table's own token object, the list is what sorting fresh
    ``(bytes, key)`` pairs gives, and every ordering query answers as
    the private view does — keys differ between tables, IDs may not."""
    table = IdInternTable()
    shared = [PeerView(adv(n), interner=table) for n in range(VIEWS)]
    private = [PeerView(adv(n)) for n in range(VIEWS)]
    now = 0.0
    for index, op in operations:
        now += 1.0 if op[0] != "expire" else op[1]
        for view in (shared[index], private[index]):
            if op[0] == "upsert":
                view.upsert(adv(op[1]), now)
            elif op[0] == "remove":
                view.remove(PeerID.from_int(NET_PEER_GROUP_ID, op[1]), now)
            else:
                view.expire(now, 50.0)

    for view, alone in zip(shared, private):
        members = [view.local_key, *view.known_keys()]
        assert view._order == sorted(
            (table.id_of(key)._value, key) for key in members
        )
        for token in view._order:
            assert token is table.order_token(token[1])
        assert view.ordered_ids() == alone.ordered_ids()
        for direction in (1, -1):
            assert view.neighbor_of(
                view.local_peer_id, direction
            ) == alone.neighbor_of(alone.local_peer_id, direction)
        for rank, pid in enumerate(view.ordered_ids()):
            assert view.rank_of(pid) == alone.rank_of(pid) == rank
            assert view.rank_of(table.id_of(view.key_at(rank))) == rank
            assert table.id_of(view.key_at(rank)) == alone.id_at(rank)
            for direction in (1, -1):
                assert view.neighbor_of(pid, direction) == alone.neighbor_of(
                    pid, direction
                )


@given(
    st.sets(
        st.integers(0, 999).filter(lambda n: n != LOCAL),
        min_size=2, max_size=40,
    ),
    st.booleans(), st.integers(0, 10_000), st.integers(0, 10_000),
)
def test_removal_slot_on_a_mutated_order_book(members, swap, where, which):
    """White-box mutators (the fault engine) may swap or duplicate
    ``_order`` slots.  Removal bisects with the member's token; on such
    a list it must still pick the slot a bare ``(value,)`` probe picks —
    or run off the end exactly when that probe does."""
    view = PeerView(adv(LOCAL))
    for n in sorted(members):
        view.upsert(adv(n), 0.0)
    order = view._order
    i = where % (len(order) - 1)
    if swap:
        order[i], order[i + 1] = order[i + 1], order[i]
    else:
        order.insert(i, order[i])
    view.invalidate_ordered_view()

    victim = list(view.known_keys())[which % view.size]
    expected = list(order)
    slot = bisect.bisect_left(
        expected, (view.interner.id_of(victim)._value,)
    )
    if slot == len(expected):
        with pytest.raises(IndexError):
            view.remove_by_key(victim, 1.0)
    else:
        del expected[slot]
        assert view.remove_by_key(victim, 1.0)
        assert view._order == expected


@given(st.sets(st.integers(0, 999), min_size=0, max_size=60))
def test_neighbors_match_sorted_order(members):
    view = PeerView(adv(LOCAL))
    for n in members:
        view.upsert(adv(n), 0.0)
    all_ids = sorted(set(members) | {LOCAL})
    index = all_ids.index(LOCAL)

    upper = view.neighbor_of(view.local_peer_id, +1)
    lower = view.neighbor_of(view.local_peer_id, -1)
    if index + 1 < len(all_ids):
        assert int.from_bytes(upper.unique_value, "big") == all_ids[index + 1]
    else:
        assert upper is None
    if index > 0:
        assert int.from_bytes(lower.unique_value, "big") == all_ids[index - 1]
    else:
        assert lower is None


@given(
    st.sets(st.integers(0, 999), min_size=1, max_size=60),
    st.integers(0, 59),
)
def test_rank_and_id_at_are_inverse(members, k):
    view = PeerView(adv(LOCAL))
    for n in members:
        view.upsert(adv(n), 0.0)
    count = view.member_count()
    rank = k % count
    assert view.rank_of(view.id_at(rank)) == rank


@given(
    st.lists(st.integers(0, 999), min_size=0, max_size=40, unique=True).flatmap(
        lambda ids: st.permutations(ids).map(lambda perm: (ids, list(perm)))
    )
)
def test_any_insertion_order_yields_same_total_order(ids_and_perm):
    # merge convergence: the total order a peerview settles on depends
    # only on the member *set*, never on arrival order, and upserting
    # duplicates never creates duplicate entries
    ids, perm = ids_and_perm
    reference = PeerView(adv(LOCAL))
    for n in sorted(ids):
        reference.upsert(adv(n), 0.0)
    shuffled = PeerView(adv(LOCAL))
    for n in perm:
        shuffled.upsert(adv(n), 0.0)
    for n in perm[: len(perm) // 2]:  # re-deliveries refresh, not add
        shuffled.upsert(adv(n), 1.0)
    assert shuffled.ordered_ids() == reference.ordered_ids()
    ordered = shuffled.ordered_ids()
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    assert len(set(ordered)) == len(ordered)


@given(st.sets(st.integers(0, 999), min_size=0, max_size=40), st.integers(0, 2**32))
def test_referrals_never_include_self_or_prober(members, seed):
    import random

    view = PeerView(adv(LOCAL))
    for n in members:
        view.upsert(adv(n), 0.0)
    members_list = sorted(members - {LOCAL})
    prober = PeerID.from_int(
        NET_PEER_GROUP_ID, members_list[0] if members_list else 7
    )
    picks = view.random_referrals(random.Random(seed), 3, exclude=(prober,))
    for referral in picks:
        assert isinstance(referral, RdvAdvertisement)
        assert referral.rdv_peer_id != view.local_peer_id
        assert referral.rdv_peer_id != prober
    assert len({a.rdv_peer_id for a in picks}) == len(picks)


@example(list(range(60)), [3, 3, 450], 4, 7)  # set side (n = 57 > 21)
@example(list(range(80)), [1, 2], 7, 7)  # pool side (n = 78 <= 85)
@example(list(range(10)), [9, 9], 9, 1)  # the whole pool
@given(
    st.lists(st.integers(0, 400), unique=True, max_size=120),
    st.lists(st.integers(0, 450), max_size=12),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_sample_entry_keys_matches_random_sample(members, excluded, count, seed):
    """``sample_entry_keys`` picks what ``random.sample`` over the
    filtered entry keys picks and leaves the generator in the same
    state; asking for the whole pool returns it in insertion order and
    draws nothing.  Exclusions repeat and name absent peers; views
    straddle ``random.sample``'s pool/set crossover (21 for counts up
    to 5)."""
    view = PeerView(adv(LOCAL))
    for n in members:
        view.upsert(adv(n), now=0.0)
    intern = view.interner.intern
    exclude_keys = [
        intern(PeerID.from_int(NET_PEER_GROUP_ID, n)) for n in excluded
    ]
    filtered = [k for k in view._entries if k not in exclude_keys]
    rng, reference = random.Random(seed), random.Random(seed)
    picks = view.sample_entry_keys(rng, count, exclude_keys)
    if count < len(filtered):
        assert picks == reference.sample(filtered, count)
    else:
        assert picks == filtered
    assert rng.getstate() == reference.getstate()
