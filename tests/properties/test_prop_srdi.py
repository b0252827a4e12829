"""Property-based tests: the SRDI index vs a reference model."""

from hypothesis import given
from hypothesis import strategies as st

from repro.discovery.srdi import SrdiIndex
from repro.ids import NET_PEER_GROUP_ID, PeerID

TUPLES = [("T", "Name", f"v{i}") for i in range(4)]
PUBLISHERS = [PeerID.from_int(NET_PEER_GROUP_ID, n) for n in range(4)]

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 3),  # tuple index
            st.integers(0, 3),  # publisher index
            st.floats(1.0, 50.0),  # expiration
        ),
        st.tuples(st.just("advance"), st.floats(0.0, 30.0)),
        st.tuples(st.just("remove_pub"), st.integers(0, 3)),
        st.tuples(st.just("purge"),),
        st.tuples(st.just("clear"),),
    ),
    min_size=0,
    max_size=60,
)


@given(ops)
def test_srdi_index_matches_reference_model(operations):
    index = SrdiIndex()
    model = {}  # (tuple idx, publisher idx) -> expires_at
    now = 0.0
    for op in operations:
        kind = op[0]
        if kind == "add":
            _, t, p, expiration = op
            index.add(
                TUPLES[t], PUBLISHERS[p], f"tcp://e{p}:1", now, expiration
            )
            model[(t, p)] = now + expiration
        elif kind == "advance":
            now += op[1]
        elif kind == "remove_pub":
            p = op[1]
            dropped = index.remove_publisher(PUBLISHERS[p])
            expected = sum(1 for (_, mp) in model if mp == p)
            assert dropped == expected
            model = {k: v for k, v in model.items() if k[1] != p}
        elif kind == "purge":
            index.purge_expired(now)
            model = {k: v for k, v in model.items() if v > now}
        else:
            index.clear()
            model = {}

        # live lookups agree with the model after every operation
        for t in range(4):
            live = {
                r.publisher for r in index.lookup(TUPLES[t], now)
            }
            expected_pubs = {
                PUBLISHERS[p]
                for (mt, p), exp in model.items()
                if mt == t and exp > now
            }
            assert live == expected_pubs, (t, now)
        # the stored count never under-counts the live records
        assert len(index) >= sum(1 for v in model.values() if v > now)


bucket_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 3),  # tuple index
            st.integers(0, 2),  # publisher index
            st.floats(1.0, 50.0),  # expiration
        ),
        st.tuples(
            st.just("push"),  # one push: several tuples, one set of facts
            st.lists(st.integers(0, 3), min_size=1, max_size=6),
            st.integers(0, 2),
            st.sampled_from([5.0, 20.0]),
        ),
        st.tuples(st.just("advance"), st.floats(0.0, 30.0)),
        st.tuples(st.just("remove_pub"), st.integers(0, 2)),
        st.tuples(st.just("purge"),),
    ),
    min_size=0,
    max_size=60,
)


@given(bucket_ops)
def test_srdi_buckets_match_dict_of_dicts(operations):
    """The store against the plainest thing that could work — ``{tuple:
    {publisher: (address, expires_at)}}``, an emptied bucket deleted —
    after every add / refresh / ``remove_publisher`` / ``purge_expired``:
    the ``lookup`` list *and its order*, ``tuples()`` order, ``len`` and
    ``inserts``.  Three publishers over four tuples take every bucket
    through absent -> one record -> several -> one -> absent.  The
    reverse index is held to ``{publisher: [tuples in arrival order]}``:
    a refresh neither moves nor repeats a tuple, a tuple that left and
    came back is last, and an emptied list is deleted.

    The model keeps one value per (tuple, publisher) and shares nothing;
    the index shares a record among the tuples of one push (``push``
    ops, and ``add`` ops that happen to repeat the last facts).  Every
    slot — expired ones too, which ``lookup`` hides — must hold the
    model's ``(publisher, address, expires_at, key)``, so two slots may
    be one object only where the model's four values are equal."""
    index = SrdiIndex()
    model = {}
    arrival = {}  # publisher idx -> tuple idxs, oldest record first
    inserts = 0
    now = 0.0
    for step, op in enumerate(operations):
        kind = op[0]
        if kind in ("add", "push"):
            _, ts, p, expiration = op
            if kind == "add":
                # a refresh may change the address; it must not move the record
                ts, address = [ts], f"tcp://e{p}:{step}"
            else:
                # one address whoever pushes: the publisher key must tell
                address = "tcp://nat:1"
            for t in ts:
                index.add(TUPLES[t], PUBLISHERS[p], address, now, expiration)
                if p not in model.get(t, {}):
                    arrival.setdefault(p, []).append(t)
                model.setdefault(t, {})[p] = (address, now + expiration)
                inserts += 1
        elif kind == "advance":
            now += op[1]
        elif kind == "remove_pub":
            p = op[1]
            expected = sum(1 for bucket in model.values() if p in bucket)
            assert index.remove_publisher(PUBLISHERS[p]) == expected
            for bucket in model.values():
                bucket.pop(p, None)
            arrival.pop(p, None)
        else:
            expected = sum(
                1 for bucket in model.values()
                for _, expires_at in bucket.values() if expires_at <= now
            )
            assert index.purge_expired(now) == expected
            for bucket in model.values():
                for p in [p for p, (_, exp) in bucket.items() if exp <= now]:
                    del bucket[p]
            arrival = {
                p: [t for t in ts if p in model[t]] for p, ts in arrival.items()
            }
        model = {t: bucket for t, bucket in model.items() if bucket}

        assert index.tuples() == [TUPLES[t] for t in model]
        assert len(index) == sum(len(bucket) for bucket in model.values())
        assert index.inserts == inserts
        for t in range(4):
            got = [
                (r.publisher, r.publisher_address, r.expires_at, r.key)
                for r in index.lookup(TUPLES[t], now)
            ]
            assert got == [
                (PUBLISHERS[p], address, expires_at,
                 index.interner.lookup(PUBLISHERS[p]))
                for p, (address, expires_at) in model.get(t, {}).items()
                if expires_at > now
            ], (step, op, t)
        # white box: every slot against the unshared model, by value
        for t, bucket in model.items():
            slot = index._index[TUPLES[t]]
            assert len(bucket) == 1 or type(slot) is dict
            for p, (address, expires_at) in bucket.items():
                key = index.interner.lookup(PUBLISHERS[p])
                r = slot[key] if type(slot) is dict else slot
                assert (r.publisher, r.publisher_address, r.expires_at, r.key) \
                    == (PUBLISHERS[p], address, expires_at, key), (step, op, t, p)
        # white box: the reverse index remove_publisher relies on
        reverse = {
            index.interner.lookup(PUBLISHERS[p]): [TUPLES[t] for t in ts]
            for p, ts in arrival.items() if ts
        }
        assert index._by_publisher == reverse, (step, op)
        # ... and the arrival model itself lists each record once
        for p, ts in arrival.items():
            assert sorted(ts) == sorted(t for t in model if p in model[t])
