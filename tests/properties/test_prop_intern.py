"""Property-based tests: ID intern-table round-trip and rank stability.

The intern table maps ``PeerID`` objects to dense ints so the hot
paths (peerview membership, SRDI indices, router tables) key on small
ints instead of hashing URN strings.  The mapping must be a lossless
round-trip — ``PeerID -> key -> PeerID`` returns the *first object
registered* for that identity — and must carry **no ordering meaning**:
peerview ranks come from the ID bytes alone, never from registration
order.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.ids.intern import IdInternTable
from repro.rendezvous.peerview import PeerView

id_values = st.lists(
    st.integers(0, 999), min_size=1, max_size=60, unique=True
)


def adv(n):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        route_hint=f"tcp://h{n}:1",
    )


@given(id_values)
def test_intern_round_trip_identity(values):
    table = IdInternTable()
    firsts = [PeerID.from_int(NET_PEER_GROUP_ID, n) for n in values]
    keys = [table.intern(pid) for pid in firsts]

    # dense keys in first-seen order
    assert keys == list(range(len(firsts)))

    for pid, key in zip(firsts, keys):
        # PeerID -> int -> PeerID returns the exact registered object
        assert table.id_of(key) is pid
        # interning again (same object or an equal twin) is stable
        assert table.intern(pid) == key
        twin = PeerID.from_int(NET_PEER_GROUP_ID, values[key])
        assert twin == pid and twin is not pid
        assert table.intern(twin) == key
        # the twin did not displace the canonical object
        assert table.id_of(key) is pid
        assert table.lookup(pid) == key


@given(id_values, st.randoms(use_true_random=False))
def test_intern_keys_are_table_scoped(values, rng):
    """Two tables fed the same IDs in different orders assign keys
    independently; neither leaks into the other."""
    a, b = IdInternTable(), IdInternTable()
    ids = [PeerID.from_int(NET_PEER_GROUP_ID, n) for n in values]
    shuffled = list(ids)
    rng.shuffle(shuffled)
    keys_a = {pid: a.intern(pid) for pid in ids}
    keys_b = {pid: b.intern(pid) for pid in shuffled}
    for pid in ids:
        assert a.id_of(keys_a[pid]) is pid
        assert b.id_of(keys_b[pid]) is pid
        # re-interning in either table still yields that table's key,
        # even though the object may carry the other table's fast-path
        # cache from its most recent intern call
        assert a.intern(pid) == keys_a[pid]
        assert b.intern(pid) == keys_b[pid]


@given(id_values, st.randoms(use_true_random=False))
def test_ranks_independent_of_intern_order(values, rng):
    """Replica ranks (Table 1) depend only on ID bytes: a view whose
    intern table saw the members in a random order beforehand ranks
    identically to one interning on first contact."""
    local = values[0]
    members = values[1:]

    fresh = PeerView(adv(local))

    preloaded_table = IdInternTable()
    warm_order = [local] + members
    rng.shuffle(warm_order)
    for n in warm_order:
        preloaded_table.intern(PeerID.from_int(NET_PEER_GROUP_ID, n))
    preloaded = PeerView(adv(local), interner=preloaded_table)

    contact_order = list(members)
    rng.shuffle(contact_order)
    for i, n in enumerate(contact_order):
        fresh.upsert(adv(n), float(i))
        preloaded.upsert(adv(n), float(i))

    assert fresh.ordered_ids() == preloaded.ordered_ids()
    assert fresh.ordered_ids() == tuple(
        sorted(fresh.ordered_ids(), key=lambda pid: pid._value)
    )
    for n in values:
        pid = PeerID.from_int(NET_PEER_GROUP_ID, n)
        assert fresh.rank_of(pid) == preloaded.rank_of(pid)


@given(id_values)
def test_order_tokens_are_one_shared_tuple_per_id(values):
    """``order_token(key)`` is ``(id bytes, key)``, the same object on
    every call (also after the table has grown), and tokens sort as the
    IDs do whatever order the keys were assigned in."""
    table = IdInternTable()
    ids = [PeerID.from_int(NET_PEER_GROUP_ID, n) for n in values]
    tokens = []
    for pid in ids:
        key = table.intern(pid)
        tokens.append(table.order_token(key))
        assert tokens[-1] == (pid._value, key)
    for key, token in enumerate(tokens):
        assert table.order_token(key) is token
        twin = PeerID.from_int(NET_PEER_GROUP_ID, values[key])
        assert table.order_token(table.intern(twin)) is token
    assert [table.id_of(key) for _, key in sorted(tokens)] == sorted(ids)


@given(id_values, st.integers(1000, 1999))
def test_membership_queries_never_intern(values, stranger):
    """``rank_of`` and ``in`` are asked about IDs parsed off the wire;
    a miss must not grow the table (keys, and so tokens, are only ever
    assigned by something that stores the ID)."""
    view = PeerView(adv(values[0]))
    for n in values[1:]:
        view.upsert(adv(n), 0.0)
    size = len(view.interner)
    foreign = PeerID.from_int(NET_PEER_GROUP_ID, stranger)
    assert view.rank_of(foreign) is None
    assert foreign not in view
    assert view.get(foreign) is None
    assert not view.remove(foreign, 1.0)
    assert len(view.interner) == size
    assert not hasattr(foreign, "_intern")
