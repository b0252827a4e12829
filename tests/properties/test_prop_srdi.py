"""Property-based tests: the SRDI index and pusher vs reference models."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.advertisement import AdvertisementCache
from repro.advertisement.rdvadv import RdvAdvertisement
from repro.config import PlatformConfig
from repro.discovery.srdi import SrdiIndex, SrdiPusher
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.sim import Simulator

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


# ----------------------------------------------------------------------
# the pusher: a journal of publications against the whole-cache walk
# ----------------------------------------------------------------------
class ScanPusher:
    """``SrdiPusher._tick`` as it was before the journal: every tick walks
    the whole cache and pushes, in cache order, each tuple of a live local
    entry that this rendezvous has not been sent yet."""

    def __init__(self, sim, cache):
        self.sim = sim
        self.cache = cache
        self._pushed = {}
        self.sent = []

    def rendezvous_changed(self):
        self._pushed.clear()
        self._tick()

    def push_now(self):
        self._tick()

    def _tick(self):
        now = self.sim.now
        delta = []
        for entry in self.cache.entries(now=now):
            if not entry.local:
                continue
            for index_tuple in entry.adv.index_tuples():
                if index_tuple not in self._pushed:
                    self._pushed[index_tuple] = None
                    delta.append((index_tuple, entry.expiration))
        if delta:
            self.sent.append(delta)


def _rdv_doc(n, variant):
    # three tuples: the group's (every document's), the peer's (both
    # variants of key n) and a Name only this document carries
    return RdvAdvertisement(
        rdv_peer_id=PUBLISHERS[n], group_id=NET_PEER_GROUP_ID,
        name=f"doc-{n}{variant}",
    )


#: the shared documents: "same document" is the same object
DOCS = {(n, variant): _rdv_doc(n, variant) for n in range(3) for variant in "ab"}

#: (key, variant, an equal but distinct copy?)
doc = st.tuples(
    st.integers(0, 2), st.sampled_from("ab"), st.sampled_from([False] * 3 + [True])
)
publish = st.tuples(
    st.just("publish"), doc,
    st.sampled_from([5.0, 500.0]),  # lifetime: 5 s dies at the next advance
    st.sampled_from([10.0, 20.0]),  # expiration pushed
)
pusher_ops = st.lists(
    st.one_of(
        publish, publish, publish,
        st.tuples(st.just("store_remote"), doc, st.sampled_from([5.0, 500.0])),
        st.tuples(st.just("remove"), doc),
        st.tuples(st.just("flush"),),
        st.tuples(st.just("advance"), st.sampled_from([1.0, 10.0])),
        st.tuples(st.just("_tick"),),
        st.tuples(st.just("_tick"),),
        st.tuples(st.just("push_now"),),
        st.tuples(st.just("rendezvous_changed"),),
        st.tuples(st.just("new_pusher"),),
    ),
    min_size=4,
    max_size=50,
)


@settings(max_examples=500, deadline=None)
@given(st.lists(doc, max_size=4), pusher_ops)
# the same document over a copy that expired before any tick saw it
@example([], [("publish", (0, "a", False), 5.0, 10.0), ("advance", 10.0),
              ("_tick",), ("publish", (0, "a", False), 500.0, 10.0), ("_tick",)])
# another document under a key whose copy is live and pushed
@example([], [("publish", (0, "a", False), 500.0, 10.0), ("_tick",),
              ("publish", (0, "b", False), 500.0, 10.0), ("_tick",)])
# journaled 1 then 0, cached 0 then 1: the shared group tuple goes out
# with key 0's expiration
@example([], [("store_remote", (0, "a", False), 500.0),
              ("publish", (1, "a", False), 500.0, 10.0),
              ("publish", (0, "a", False), 500.0, 20.0), ("_tick",)])
def test_journal_pusher_sends_what_the_whole_cache_walk_sent(seeded, operations):
    """After every tick — periodic, ``push_now``, ``rendezvous_changed``,
    and that of a pusher created over a non-empty cache — the pusher
    sends exactly the payload the old walk sent (tuples, their order and
    their expirations) and holds the same ``_pushed``, in order.
    Publications cover a new key, the same document again (live, expired,
    over a remote copy), another document under a key, and an equal but
    distinct copy (the third ``doc`` field)."""
    sim = Simulator(seed=1)
    cache = AdvertisementCache()

    def document(spec):
        n, variant, fresh = spec
        return _rdv_doc(n, variant) if fresh else DOCS[(n, variant)]

    def pair():
        sent = []
        pusher = SrdiPusher(sim, cache, PlatformConfig(), sent.append)
        return pusher, sent, ScanPusher(sim, cache)

    for spec in seeded:
        cache.publish(document(spec), sim.now)
    pusher, sent, oracle = pair()
    for step, op in enumerate(operations):
        kind = op[0]
        if kind == "publish":
            cache.publish(document(op[1]), sim.now, op[2], op[3])
        elif kind == "store_remote":
            cache.store_remote(document(op[1]), sim.now, op[2])
        elif kind == "remove":
            cache.remove(document(op[1]))
        elif kind == "flush":
            cache.flush()
        elif kind == "advance":
            sim.run(until=sim.now + op[1])
        elif kind == "new_pusher":
            pusher, sent, oracle = pair()
        else:
            getattr(pusher, kind)()
            getattr(oracle, kind)()
            assert [p.entries for p in sent] == oracle.sent, (step, op)
            assert list(pusher._pushed) == list(oracle._pushed), (step, op)
            assert cache.journal == []
    pusher._tick()
    oracle._tick()
    assert [p.entries for p in sent] == oracle.sent
    assert list(pusher._pushed) == list(oracle._pushed)
