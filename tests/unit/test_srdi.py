"""Unit tests for the SRDI index and pusher."""

import pytest

from repro.advertisement import AdvertisementCache, FakeAdvertisement
from repro.config import PlatformConfig
from repro.discovery.srdi import SrdiIndex, SrdiPayload, SrdiPusher
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.sim import Simulator


def pid(n):
    return PeerID.from_int(NET_PEER_GROUP_ID, n)


T1 = ("repro:FakeAdvertisement", "Name", "alpha")
T2 = ("repro:FakeAdvertisement", "Name", "beta")


def _tuple(i):
    return ("repro:FakeAdvertisement", "Name", f"item-{i:05d}")


class _VisitCountingList(list):
    """A publisher list that counts the records read out of it."""

    def __init__(self, items, visits):
        super().__init__(items)
        self.visits = visits

    def __iter__(self):
        for item in list.__iter__(self):
            self.visits[0] += 1
            yield item


class _CountingLists(dict):
    """``_by_publisher`` recording which publishers' lists are written
    (rebuilt or dropped)."""

    def __init__(self, items):
        super().__init__(items)
        self.written = []

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.written.append(key)
        super().__delitem__(key)


class TestSrdiIndex:
    def test_add_and_lookup(self):
        idx = SrdiIndex()
        idx.add(T1, pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        records = idx.lookup(T1, now=50.0)
        assert len(records) == 1
        assert records[0].publisher == pid(1)
        assert records[0].publisher_address == "tcp://a:1"

    def test_expired_records_hidden(self):
        idx = SrdiIndex()
        idx.add(T1, pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        assert idx.lookup(T1, now=100.0) == []

    def test_refresh_extends_expiry(self):
        idx = SrdiIndex()
        idx.add(T1, pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        idx.add(T1, pid(1), "tcp://a:1", now=90.0, expiration=100.0)
        assert idx.lookup(T1, now=150.0)
        assert len(idx) == 1

    def test_multiple_publishers_per_tuple(self):
        idx = SrdiIndex()
        idx.add(T1, pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        idx.add(T1, pid(2), "tcp://b:1", now=0.0, expiration=100.0)
        assert len(idx.lookup(T1, now=1.0)) == 2
        assert len(idx) == 2

    def test_remove_publisher(self):
        idx = SrdiIndex()
        idx.add(T1, pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        idx.add(T2, pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        idx.add(T1, pid(2), "tcp://b:1", now=0.0, expiration=100.0)
        assert idx.remove_publisher(pid(1)) == 2
        assert len(idx) == 1

    def test_removed_publisher_takes_its_emptied_buckets_along(self):
        # wildcard and range queries walk tuples(): a tuple nobody
        # publishes any more must not stay listed until the next purge
        idx = SrdiIndex()
        idx.add(T1, pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        idx.add(T2, pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        idx.add(T1, pid(2), "tcp://b:1", now=0.0, expiration=100.0)
        assert idx.remove_publisher(pid(1)) == 2
        assert idx.tuples() == [T1]
        assert len(idx) == 1
        assert [r.publisher for r in idx.lookup(T1, now=1.0)] == [pid(2)]
        assert idx.lookup(T2, now=1.0) == []
        assert idx.remove_publisher(pid(2)) == 1
        assert idx.tuples() == [] and len(idx) == 0
        assert idx._index == {} and idx._by_publisher == {}

    def test_lookup_keeps_first_insertion_order_across_refreshes(self):
        # one publisher is stored inline, the second makes the bucket a
        # dict; a refresh of either must not move it
        idx = SrdiIndex()
        for n in (3, 1, 2):
            idx.add(T1, pid(n), f"tcp://p{n}:1", now=0.0, expiration=100.0)
        idx.add(T1, pid(3), "tcp://p3:2", now=5.0, expiration=100.0)
        records = idx.lookup(T1, now=10.0)
        assert [r.publisher for r in records] == [pid(3), pid(1), pid(2)]
        assert records[0].publisher_address == "tcp://p3:2"
        assert records[0].expires_at == 105.0
        assert len(idx) == 3 and idx.inserts == 4

    def test_purge_expired(self):
        idx = SrdiIndex()
        idx.add(T1, pid(1), "tcp://a:1", now=0.0, expiration=10.0)
        idx.add(T2, pid(2), "tcp://b:1", now=0.0, expiration=100.0)
        assert idx.purge_expired(now=50.0) == 1
        assert len(idx) == 1
        assert idx.tuples() == [T2]

    def test_purge_that_drops_nothing_allocates_nothing(self):
        # the 5-minute GC tick of every rendezvous: it must not copy the
        # index to find out that nothing is dead
        import gc
        import sys

        idx = SrdiIndex()
        for i in range(5000):
            idx.add(_tuple(i), pid(i % 3), "tcp://a:1", now=0.0, expiration=100.0)
        idx.add(_tuple(0), pid(1), "tcp://a:1", now=0.0, expiration=100.0)
        gc.collect()
        before = sys.getallocatedblocks()
        assert idx.purge_expired(now=50.0) == 0
        assert abs(sys.getallocatedblocks() - before) <= 8
        assert len(idx) == 5001

    def test_purge_rebuilds_only_the_lists_it_touched(self):
        """Counted, not timed: the purge rebuilds the one publisher list
        that lost records and reads only that list's records to do it
        (its wall time is ``benchmarks/test_bench_gates.py``'s)."""
        idx = SrdiIndex()
        n = 10_000
        for i in range(3 * n):
            # one publisher per tuple, all three for every tenth (the
            # multi-publisher bucket form); publisher 2's are short-lived
            for p in (0, 1, 2) if i % 10 == 0 else (i % 3,):
                idx.add(_tuple(i), pid(p), "tcp://a:1", 0.0,
                        10.0 if p == 2 else 100.0)
        keys = [idx.interner.lookup(pid(p)) for p in range(3)]
        visits = [0]
        idx._by_publisher = _CountingLists(
            (k, _VisitCountingList(l, visits))
            for k, l in idx._by_publisher.items()
        )
        kept = [idx._by_publisher[k] for k in keys[:2]]
        doomed = len(idx._by_publisher[keys[2]])
        assert doomed >= n
        assert idx.purge_expired(now=50.0) == doomed
        assert idx._by_publisher.written == [keys[2]]
        assert visits[0] == doomed
        assert list(idx._by_publisher) == keys[:2]
        assert all(idx._by_publisher[k] is l for k, l in zip(keys, kept))
        assert len(idx) == sum(map(len, kept))
        assert idx.remove_publisher(pid(0)) == len(kept[0])
        assert idx.remove_publisher(pid(1)) == len(kept[1])
        assert idx._index == {} and idx._by_publisher == {}

    def test_partial_purge_keeps_arrival_order_of_the_survivors(self):
        idx = SrdiIndex()
        for i in range(6):
            idx.add(_tuple(i), pid(1), "tcp://a:1", 0.0, 10.0 if i % 2 else 100.0)
        assert idx.purge_expired(now=50.0) == 3
        (tuples,) = idx._by_publisher.values()
        assert tuples == [_tuple(0), _tuple(2), _tuple(4)]
        idx.add(_tuple(1), pid(1), "tcp://a:1", 60.0, 100.0)  # back: last
        (tuples,) = idx._by_publisher.values()
        assert tuples == [_tuple(0), _tuple(2), _tuple(4), _tuple(1)]

    def test_bad_expiration_rejected(self):
        with pytest.raises(ValueError):
            SrdiIndex().add(T1, pid(1), "a", now=0.0, expiration=0.0)


def _records(idx):
    """Every (tuple, publisher key) slot's record, in index order."""
    return [
        r
        for bucket in idx._index.values()
        for r in (bucket.values() if type(bucket) is dict else (bucket,))
    ]


def _push(idx, n, tuples, now=0.0, expiration=100.0, address=None):
    # one address whoever publishes: the publisher must tell records apart
    for i in tuples:
        idx.add(_tuple(i), pid(n), address or "tcp://nat:1", now, expiration)


class TestSharedRecords:
    """Lifetime, publisher and address belong to a push (§3.3): the
    tuples one push carries share one record object."""

    def test_one_push_leaves_one_record_object(self):
        idx = SrdiIndex()
        _push(idx, 1, range(50))
        assert len(idx) == 50 and idx.inserts == 50
        assert len({id(r) for r in _records(idx)}) == 1
        assert all(idx.lookup(_tuple(i), 1.0) == [idx._last] for i in range(50))

    @pytest.mark.parametrize("change", [
        dict(now=1.0), dict(expiration=101.0), dict(address="tcp://nat:2"),
        dict(n=2),
    ])
    def test_any_differing_fact_starts_a_new_record(self, change):
        idx = SrdiIndex()
        _push(idx, 1, range(3))
        first = idx._last
        _push(idx, change.pop("n", 1), range(3, 6), **change)
        assert idx._last is not first
        assert [id(r) for r in _records(idx)] == [id(first)] * 3 + [id(idx._last)] * 3
        # ... and going back to the first push's facts is a third
        # record, equal to the first: only the last one is remembered
        _push(idx, 1, [6])
        assert idx._last is not first
        assert idx._last == first

    def test_equal_expiry_from_another_now_is_shared(self):
        # the record holds now + expiration, not the two terms
        idx = SrdiIndex()
        _push(idx, 1, [0], now=0.0, expiration=100.0)
        _push(idx, 1, [1], now=40.0, expiration=60.0)
        assert len({id(r) for r in _records(idx)}) == 1

    def test_same_push_refresh_changes_neither_count_nor_reverse_index(self):
        idx = SrdiIndex()
        _push(idx, 2, [0])  # makes tuple 0's bucket a dict below
        _push(idx, 1, range(4))
        before = {k: list(v) for k, v in idx._by_publisher.items()}
        _push(idx, 1, [2, 0, 2])
        assert len(idx) == 5 and idx.inserts == 8
        assert idx._by_publisher == before
        assert len({id(r) for r in _records(idx)}) == 2

    def test_purge_and_remove_on_shared_records_match_one_record_each(self):
        # the oracle: {(tuple, publisher): expires_at}, nothing shared
        idx = SrdiIndex()
        oracle = {}
        pushes = [(1, range(0, 6), 0.0, 10.0), (2, range(3, 9), 0.0, 100.0),
                  (1, range(6, 12), 5.0, 100.0), (3, range(0, 12, 2), 5.0, 5.0)]
        for n, tuples, now, expiration in pushes:
            _push(idx, n, tuples, now, expiration)
            oracle.update({(i, n): now + expiration for i in tuples})
        assert len({id(r) for r in _records(idx)}) == len(pushes)

        def check(now):
            assert len(idx) == len(oracle)
            for i in range(12):
                assert sorted(
                    (r.publisher, r.expires_at)
                    for r in idx.lookup(_tuple(i), now)
                ) == sorted(
                    (pid(n), exp) for (t, n), exp in oracle.items()
                    if t == i and exp > now
                )

        check(1.0)
        dead = [k for k, exp in oracle.items() if exp <= 10.0]
        assert idx.purge_expired(10.0) == len(dead) == 12
        for k in dead:
            del oracle[k]
        check(10.0)
        gone = [k for k in oracle if k[1] == 1]
        assert idx.remove_publisher(pid(1)) == len(gone) == 6
        for k in gone:
            del oracle[k]
        check(11.0)
        # the remembered record outlives its slots; what it is handed
        # to next is a fresh slot like any other
        assert idx._last not in _records(idx)
        _push(idx, 3, [1], now=5.0, expiration=5.0)
        assert idx.lookup(_tuple(1), 9.0) == [idx._last]
        assert idx.purge_expired(10.0) == 1
        check(11.0)

    def test_clear_forgets_the_last_record(self):
        idx = SrdiIndex()
        _push(idx, 1, range(3))
        idx.clear()
        assert idx._last is None and len(idx) == 0


class TestSrdiPayload:
    def test_size_scales_with_entries(self):
        small = SrdiPayload(entries=[(T1, 100.0)], publisher_address="a")
        big = SrdiPayload(
            entries=[(T1, 100.0)] * 20, publisher_address="a"
        )
        assert big.size_bytes() > small.size_bytes()


class TestSrdiGarbageCollection:
    def test_rdv_purges_expired_records_periodically(self):
        from repro.config import PlatformConfig
        from repro.deploy import OverlayDescription, build_overlay
        from repro.network import Network
        from repro.sim import MINUTES, Simulator

        sim = Simulator(seed=4)
        overlay = build_overlay(
            sim, Network(sim), PlatformConfig(),
            OverlayDescription(rendezvous_count=2, edge_count=1,
                               edge_attachment=[0]),
        )
        overlay.start()
        sim.run(until=5 * MINUTES)
        edge = overlay.edges[0]
        edge.discovery.publish(
            FakeAdvertisement("ephemeral"), expiration=3 * 60.0
        )
        sim.run(until=sim.now + 2 * 60.0)
        rdv = overlay.rendezvous[0]
        assert any(
            t == ("repro:FakeAdvertisement", "Name", "ephemeral")
            for t in rdv.discovery.srdi.tuples()
        )
        before = len(rdv.discovery.srdi)
        # past the record expiration + a GC cycle: record is gone
        sim.run(until=sim.now + 10 * 60.0)
        assert len(rdv.discovery.srdi) < before


def _pusher(interval=30.0):
    """A pusher over an empty cache, ticking at 0, ``interval``, ..."""
    sim = Simulator(seed=1)
    cache = AdvertisementCache()
    config = PlatformConfig().with_overrides(
        srdi_push_interval=interval, startup_jitter=0.0
    )
    sent = []
    pusher = SrdiPusher(sim, cache, config, sent.append)
    return sim, cache, pusher, sent


class TestSrdiPusher:
    def _setup(self, interval=30.0):
        return _pusher(interval)

    def test_pushes_new_tuples_at_interval(self):
        sim, cache, pusher, sent = self._setup()
        pusher.start()
        cache.publish(FakeAdvertisement("alpha"), now=0.0)
        sim.run(until=31.0)
        assert len(sent) == 1
        tuples = [t for t, _ in sent[0].entries]
        assert T1 in tuples

    def test_no_change_no_push(self):
        sim, cache, pusher, sent = self._setup()
        pusher.start()
        cache.publish(FakeAdvertisement("alpha"), now=0.0)
        sim.run(until=200.0)
        assert len(sent) == 1  # pushed once, never again

    def test_new_advertisement_triggers_new_push(self):
        sim, cache, pusher, sent = self._setup()
        pusher.start()
        cache.publish(FakeAdvertisement("alpha"), now=0.0)
        sim.run(until=31.0)
        cache.publish(FakeAdvertisement("beta"), sim.now)
        sim.run(until=200.0)
        assert len(sent) == 2
        assert (T2, ) not in sent[0].entries

    def test_rendezvous_changed_republishes_everything(self):
        sim, cache, pusher, sent = self._setup()
        pusher.start()
        cache.publish(FakeAdvertisement("alpha"), now=0.0)
        sim.run(until=31.0)
        pusher.rendezvous_changed()
        assert len(sent) == 2
        assert [t for t, _ in sent[1].entries] == [T1]

    def test_rendezvous_changed_republishes_in_cache_order(self):
        sim, cache, pusher, sent = self._setup()
        names = ["delta", "alpha", "charlie", "beta"]
        for name in names:
            cache.publish(FakeAdvertisement(name), now=0.0)
        pusher.push_now()
        cache.remove(FakeAdvertisement("alpha"))
        cache.publish(FakeAdvertisement("alpha"), now=1.0)  # re-enters last
        pusher.rendezvous_changed()
        assert [t[2] for t, _ in sent[0].entries] == names
        assert [t[2] for t, _ in sent[1].entries] == [
            "delta", "charlie", "beta", "alpha"]
        assert list(pusher._pushed) == [t for t, _ in sent[1].entries]

    def test_tuple_shared_by_two_local_entries_is_pushed_once(self):
        from repro.advertisement.rdvadv import RdvAdvertisement

        sim, cache, pusher, sent = self._setup()
        docs = [
            RdvAdvertisement(rdv_peer_id=pid(n), group_id=NET_PEER_GROUP_ID,
                             name="shared")
            for n in (1, 2)
        ]
        for doc in docs:
            cache.publish(doc, now=0.0)
        pusher.push_now()
        (payload,) = sent
        pushed = [t for t, _ in payload.entries]
        assert len(pushed) == len(set(pushed))
        assert pushed.count((docs[0].ADV_TYPE, "Name", "shared")) == 1
        # in cache order: the first document's tuples, then what the
        # second one adds to them
        assert pushed == list(docs[0].index_tuples()) + [
            t for t in docs[1].index_tuples()
            if t not in docs[0].index_tuples()
        ]

    def test_removed_then_republished_document_is_not_pushed_again(self):
        sim, cache, pusher, sent = self._setup()
        cache.publish(FakeAdvertisement("alpha"), now=0.0)
        pusher.push_now()
        cache.remove(FakeAdvertisement("alpha"))
        pusher.push_now()
        cache.publish(FakeAdvertisement("alpha"), now=5.0)  # a fresh document
        pusher.push_now()
        assert len(sent) == 1 and pusher.pushes == 1

    def test_remote_advertisements_not_pushed(self):
        sim, cache, pusher, sent = self._setup()
        pusher.start()
        cache.store_remote(FakeAdvertisement("alpha"), now=0.0, expiration=3600.0)
        sim.run(until=100.0)
        assert sent == []


class _Untouchable(dict):
    """An ``_entries`` table that fails the test when anything walks it."""

    def _walked(self, *args):
        raise AssertionError("an idle tick walked the cache")

    __iter__ = __reversed__ = keys = values = items = _walked


class TestPusherJournal:
    """The pusher reads what was published since its last tick, not the
    cache: :attr:`AdvertisementCache.journal`."""

    def _setup(self):
        return _pusher()

    def test_an_idle_tick_touches_no_cache_entry(self):
        sim, cache, pusher, sent = self._setup()
        pusher.start()
        for i in range(50):
            cache.publish(FakeAdvertisement(f"doc-{i}"), now=0.0)
        sim.run(until=31.0)
        assert len(sent) == 1
        cache._entries = _Untouchable(cache._entries)
        sim.run(until=31.0 + 10 * 30.0)  # ten idle ticks
        assert len(sent) == 1

    def test_the_journal_is_empty_after_each_tick(self):
        sim, cache, pusher, sent = self._setup()
        pusher.start()
        alpha = FakeAdvertisement("alpha")
        cache.publish(alpha, now=0.0)
        cache.publish(FakeAdvertisement("beta"), now=0.0)
        assert cache.journal == [alpha.unique_key(), "repro:FakeAdvertisement|beta"]
        sim.run(until=31.0)
        assert cache.journal == []
        cache.publish(alpha, now=sim.now)  # the same live document: nothing new
        assert cache.journal == []
        cache.publish(FakeAdvertisement("alpha"), now=sim.now)  # another one
        cache.publish(FakeAdvertisement("gamma"), now=sim.now)
        assert len(cache.journal) == 2
        pusher.push_now()
        assert cache.journal == []
        cache.publish(FakeAdvertisement("delta"), now=sim.now)
        pusher.rendezvous_changed()
        assert cache.journal == []
        assert [t[2] for t, _ in sent[-1].entries] == [
            "alpha", "beta", "gamma", "delta"]

    def test_a_pusher_over_a_filled_cache_pushes_what_it_holds(self):
        sim = Simulator(seed=1)
        cache = AdvertisementCache()
        for name in ("delta", "alpha"):
            cache.publish(FakeAdvertisement(name), now=0.0)
        cache.store_remote(FakeAdvertisement("remote"), now=0.0)
        sent = []
        pusher = SrdiPusher(sim, cache, PlatformConfig(), sent.append)
        assert len(cache.journal) == 3
        pusher.push_now()
        assert [t[2] for t, _ in sent[0].entries] == ["delta", "alpha"]

    def test_only_an_edge_cache_keeps_a_journal(self):
        from repro.deploy import OverlayDescription, build_overlay
        from repro.network import Network
        from repro.sim import MINUTES

        sim = Simulator(seed=1)
        overlay = build_overlay(
            sim, Network(sim), PlatformConfig(),
            OverlayDescription(rendezvous_count=4, edge_count=3),
        )
        overlay.start()
        sim.run(until=2 * MINUTES)
        assert all(rdv.cache.journal is None for rdv in overlay.rendezvous)
        assert all(edge.cache.journal == [] for edge in overlay.edges)
