"""Property: cache queries match the historical linear scan.

``AdvertisementCache.search`` used to scan every entry with
``fnmatchcase``.  The discovery query's own shape — a type, an
attribute and a glob-free value — now resolves through one hash index;
every other shape is a filtered scan of the entry dict.  The oracle
below is the pre-index implementation, verbatim but for the
``limit <= 0`` guard (it appended before it tested the limit), run
against the same entry dict — every query the discovery API can
express must return the *identical* list (same advertisements, same
order, same ``limit`` truncation), including ``*``/``?``/``[..]``
patterns and queries at exact expiry instants.
"""

from fnmatch import fnmatchcase

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertisement import AdvertisementCache, FakeAdvertisement
from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID

FAKE = FakeAdvertisement.ADV_TYPE
RDV = RdvAdvertisement.ADV_TYPE


def linear_scan_oracle(cache, adv_type, attribute, value, now, limit=None):
    """The pre-index ``search`` implementation, character for character
    (plus: no result for a non-positive ``limit``)."""
    if limit is not None and limit <= 0:
        return []
    out = []
    for entry in cache._entries.values():
        if entry.expired(now):
            continue
        adv = entry.adv
        if adv_type is not None and adv.ADV_TYPE != adv_type:
            continue
        if attribute is not None:
            matched = False
            for t, attr, val in adv.index_tuples():
                if attr == attribute and (
                    value is None or fnmatchcase(val, value)
                ):
                    matched = True
                    break
            if not matched:
                continue
        out.append(adv)
        if limit is not None and len(out) >= limit:
            break
    return out


def assert_buckets_in_entry_order(cache):
    """White box: the exact-value index holds one bucket per value some
    stored advertisement carries — none for those gone — and a bucket
    lists its keys in ``cache._entries`` order, once each."""
    stored = {}
    for key, entry in cache._entries.items():
        for index_tuple in entry.adv.index_tuples():
            stored.setdefault(index_tuple, []).append(key)
    held = {
        index_tuple: [keys] if isinstance(keys, str) else list(keys)
        for index_tuple, keys in cache._by_attr.items()
    }
    assert held == stored


def _rdv(n, name):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        name=name,
    )


names = st.sampled_from([f"adv-{i}" for i in range(6)])
rdv_ns = st.integers(0, 4)
#: overlaps with the fake names so cross-type attribute queries bite
rdv_names = st.sampled_from(["", "adv-1", "adv-3", "rdv-x"])
durations = st.floats(1.0, 50.0)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("pub_fake"), names, durations),
        st.tuples(st.just("remote_fake"), names, durations),
        st.tuples(st.just("pub_rdv"), rdv_ns, rdv_names, durations),
        st.tuples(st.just("remove_fake"), names),
        st.tuples(st.just("advance"), st.floats(0.0, 20.0)),
        st.tuples(st.just("purge"),),
    ),
    min_size=0,
    max_size=40,
)

adv_types = st.sampled_from([None, FAKE, RDV, "jxta:NoSuchType"])
attributes = st.sampled_from([None, "Name", "RdvPeerID", "Payload", "Bogus"])
values = st.sampled_from(
    [None, "adv-1", "adv-3", "adv-5", "rdv-x", "adv-*", "*", "adv-?",
     "no-such", "[a]dv-1", "a*1"]
)
limits = st.sampled_from([None, 0, 1, 2, 3, 5])
queries = st.lists(
    st.tuples(adv_types, attributes, values, limits), min_size=1, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(operations, queries)
def test_indexed_search_matches_linear_oracle(ops, query_specs):
    cache = AdvertisementCache()
    now = 0.0
    expiry_instants = []
    for op in ops:
        kind = op[0]
        if kind == "pub_fake":
            cache.publish(FakeAdvertisement(op[1]), now, lifetime=op[2])
            expiry_instants.append(now + op[2])
        elif kind == "remote_fake":
            cache.store_remote(FakeAdvertisement(op[1]), now, expiration=op[2])
            expiry_instants.append(now + op[2])
        elif kind == "pub_rdv":
            cache.publish(_rdv(op[1], op[2]), now, lifetime=op[3])
            expiry_instants.append(now + op[3])
        elif kind == "remove_fake":
            cache.remove(FakeAdvertisement(op[1]))
        elif kind == "advance":
            now += op[1]
        else:
            cache.purge_expired(now)

    # probe at the current time, exactly at expiry instants (>= means
    # expired), and just before/after one
    probe_nows = [now] + expiry_instants[:3]
    if expiry_instants:
        probe_nows += [expiry_instants[0] - 1e-9, expiry_instants[0] + 1e-9]

    for adv_type, attribute, value, limit in query_specs:
        for qnow in probe_nows:
            got = cache.search(adv_type, attribute, value, qnow, limit=limit)
            want = linear_scan_oracle(
                cache, adv_type, attribute, value, qnow, limit=limit
            )
            assert got == want, (
                f"query ({adv_type!r}, {attribute!r}, {value!r}, "
                f"limit={limit}) at t={qnow}"
            )


#: few names over few keys: an exact-value probe finds 0, 1 or several
#: keys, and republishing key ``n`` under another name moves it between
#: index buckets while it keeps its place in the result order
shared_names = st.sampled_from(["a", "b", "c"])
rdv_publishes = st.lists(
    st.tuples(st.integers(0, 5), shared_names, durations),
    min_size=0, max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(rdv_publishes, st.floats(0.0, 60.0))
def test_exact_value_probe_matches_linear_oracle(publishes, now):
    """The discovery query's own path — exact ``(type, attribute,
    value)``, answered by one index probe — for every value and every
    ``limit``, with overwritten keys and expired entries in the
    buckets."""
    cache = AdvertisementCache()
    for n, name, lifetime in publishes:
        cache.publish(_rdv(n, name), 0.0, lifetime=lifetime)
    for value in ("a", "b", "c", "never-published"):
        want_all = linear_scan_oracle(cache, RDV, "Name", value, now)
        for limit in [None] + list(range(len(want_all) + 2)):
            got = cache.search(RDV, "Name", value, now, limit=limit)
            want = linear_scan_oracle(cache, RDV, "Name", value, now, limit)
            assert got == want, f"value {value!r}, limit={limit}, t={now}"


#: bucket life cycle: four keys over the same three names, so the
#: bucket of one index tuple goes 0 -> 1 -> 2 -> 1 -> 0 keys (absent,
#: inline member, ordered dict, ...) under every operation that touches it
bucket_ops = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(0, 3), shared_names, durations),
        st.tuples(st.just("remote"), st.integers(0, 3), shared_names, durations),
        st.tuples(st.just("remove"), st.integers(0, 3)),
        st.tuples(st.just("advance"), st.floats(0.0, 30.0)),
        st.tuples(st.just("purge"),),
    ),
    min_size=0, max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(bucket_ops)
def test_bucket_life_cycle_matches_linear_oracle(ops):
    """Results, order and ``limit`` equal the linear scan after *every*
    operation, and the exact-value index holds exactly one bucket per
    value some stored advertisement carries — none for those gone."""
    cache = AdvertisementCache()
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "publish":
            cache.publish(_rdv(op[1], op[2]), now, lifetime=op[3])
        elif kind == "remote":
            cache.store_remote(_rdv(op[1], op[2]), now, expiration=op[3])
        elif kind == "remove":
            cache.remove(_rdv(op[1], "a"))
        elif kind == "advance":
            now += op[1]
        else:
            cache.purge_expired(now)

        for value in ("a", "b", "c"):
            want_all = linear_scan_oracle(cache, RDV, "Name", value, now)
            for limit in [None] + list(range(len(want_all) + 2)):
                got = cache.search(RDV, "Name", value, now, limit=limit)
                want = linear_scan_oracle(cache, RDV, "Name", value, now, limit)
                assert got == want, (op, value, limit)
            assert cache.search(None, "Name", value, now) == want_all
        assert_buckets_in_entry_order(cache)


#: three names, one of them a literal with a metacharacter, over two
#: types: a fake advertisement's key *is* its name (an overwrite stays
#: in its bucket), a rendezvous advertisement's key is its peer (an
#: overwrite under another name moves between buckets)
glob_names = st.sampled_from(["a", "ab", "a[b]"])
scan_ops = st.lists(
    st.one_of(
        st.tuples(st.just("pub_fake"), glob_names, durations),
        st.tuples(st.just("remote_fake"), glob_names, durations),
        st.tuples(st.just("pub_rdv"), st.integers(0, 2), glob_names, durations),
        st.tuples(st.just("remote_rdv"), st.integers(0, 2), glob_names, durations),
        st.tuples(st.just("remove_fake"), glob_names),
        st.tuples(st.just("remove_rdv"), st.integers(0, 2)),
        st.tuples(st.just("advance"), st.floats(0.0, 20.0)),
        st.tuples(st.just("purge"),),
    ),
    min_size=0, max_size=40,
)
#: exact, absent, presence, ``*``, ``?``, ``[..]``, and the stored
#: literal ``a[b]`` — which, asked for, is a pattern that matches ``ab``
SCAN_VALUES = ("a", "ab", "zz", None, "*", "a?", "[a]*", "a[b]", "a[[]b]")


@settings(max_examples=150, deadline=None)
@given(scan_ops)
def test_every_query_shape_matches_linear_oracle_in_order(ops):
    """What the index probe rests on: after *every* operation each
    bucket lists its keys in the order the entry dict iterates in (an
    overwrite keeps its key's place — also when another document moves
    the key into a bucket it was not in — and a removed key re-enters at
    the end), so a filtered pass over the dict and an index bucket agree
    with the oracle in content and order, for every query shape."""
    cache = AdvertisementCache()
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "pub_fake":
            cache.publish(FakeAdvertisement(op[1]), now, lifetime=op[2])
        elif kind == "remote_fake":
            cache.store_remote(FakeAdvertisement(op[1]), now, expiration=op[2])
        elif kind == "pub_rdv":
            cache.publish(_rdv(op[1], op[2]), now, lifetime=op[3])
        elif kind == "remote_rdv":
            cache.store_remote(_rdv(op[1], op[2]), now, expiration=op[3])
        elif kind == "remove_fake":
            cache.remove(FakeAdvertisement(op[1]))
        elif kind == "remove_rdv":
            cache.remove(_rdv(op[1], "a"))
        elif kind == "advance":
            now += op[1]
        else:
            cache.purge_expired(now)
        assert_buckets_in_entry_order(cache)

    for adv_type in (FAKE, RDV, None):
        for attribute in ("Name", None):
            for value in SCAN_VALUES:
                for limit in (None, 0, 1, 2):
                    got = cache.search(adv_type, attribute, value, now, limit)
                    want = linear_scan_oracle(
                        cache, adv_type, attribute, value, now, limit
                    )
                    assert [id(a) for a in got] == [id(a) for a in want], (
                        adv_type, attribute, value, limit
                    )


def test_overwrite_by_another_document_lands_in_entry_order():
    """The one store that is not an append: a key that keeps its place
    in ``_entries`` joins, with another document, a bucket of later
    keys — in the middle of a three-member one, ahead of an inline
    one."""
    cache = AdvertisementCache()
    first = [_rdv(0, "a"), _rdv(1, "b"), _rdv(2, "a"), _rdv(3, "a"), _rdv(4, "c")]
    for adv in first:
        cache.publish(adv, 0.0)
    moved = _rdv(1, "a")
    cache.publish(moved, 1.0)
    assert [id(a) for a in cache.search(RDV, "Name", "a", 2.0)] == [
        id(a) for a in (first[0], moved, first[2], first[3])
    ]
    assert cache.search(RDV, "Name", "a", 2.0, limit=2) == [first[0], moved]
    assert cache.search(RDV, "Name", "b", 2.0) == []
    assert_buckets_in_entry_order(cache)

    ahead = _rdv(0, "c")  # the bucket is the inline key of entry 4
    cache.publish(ahead, 3.0)
    assert cache.search(RDV, "Name", "c", 4.0) == [ahead, first[4]]
    assert cache.search(RDV, "Name", "a", 4.0) == [moved, first[2], first[3]]
    assert_buckets_in_entry_order(cache)


class _CountedKey(str):
    """A cache key that counts the comparisons made against it: a dict
    bucket finds a key by hash and identity and compares nothing, where
    a list-backed bucket compares the key with every member it passes."""

    visits = 0

    def __eq__(self, other):
        _CountedKey.visits += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_large_bucket_builds_and_drains_in_linear_time():
    """10 000 documents sharing one value: appended one by one, removed
    newest first (the order in which a list-backed bucket scans its
    whole length per removal), each step O(1).  Counted, not timed:
    bucket-member visits (comparisons against a member key) stay linear
    in n, where the list-backed bucket makes ≈ n²/2 of them (the wall
    time is ``benchmarks/test_bench_gates.py``'s)."""
    n = 10_000
    advs = [_rdv(i, "shared") for i in range(n)]
    for adv in advs:
        # the memoised key every cache operation reads
        adv.__dict__["_key_cache"] = _CountedKey(adv.unique_key())
    cache = AdvertisementCache()
    _CountedKey.visits = 0
    for adv in advs:
        cache.publish(adv, 0.0)
    assert len(cache._by_attr[(RDV, "Name", "shared")]) == n
    assert cache.search(RDV, "Name", "shared", 1.0, limit=3) == advs[:3]
    for adv in reversed(advs):
        cache.remove(adv)
    assert cache._by_attr == {} and len(cache) == 0
    assert _CountedKey.visits <= 2 * n, (
        f"{_CountedKey.visits} bucket-member visits for {n} publishes + removes"
    )


@settings(max_examples=60, deadline=None)
@given(operations)
def test_purge_scan_matches_model(ops):
    """``purge_expired`` drops exactly the expired entries — whatever
    was overwritten, removed or purged before — and the ``purged``
    counter agrees."""
    cache = AdvertisementCache()
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "pub_fake":
            cache.publish(FakeAdvertisement(op[1]), now, lifetime=op[2])
        elif kind == "remote_fake":
            cache.store_remote(FakeAdvertisement(op[1]), now, expiration=op[2])
        elif kind == "pub_rdv":
            cache.publish(_rdv(op[1], op[2]), now, lifetime=op[3])
        elif kind == "remove_fake":
            cache.remove(FakeAdvertisement(op[1]))
        elif kind == "advance":
            now += op[1]
        else:
            cache.purge_expired(now)

    expected_dead = sum(1 for e in cache._entries.values() if e.expired(now))
    before = cache.purged
    dropped = cache.purge_expired(now)
    assert dropped == expected_dead
    assert cache.purged == before + dropped
    assert all(not e.expired(now) for e in cache._entries.values())
