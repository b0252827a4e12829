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

    def test_bad_expiration_rejected(self):
        with pytest.raises(ValueError):
            SrdiIndex().add(T1, pid(1), "a", now=0.0, expiration=0.0)


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


class TestSrdiPusher:
    def _setup(self, interval=30.0):
        sim = Simulator(seed=1)
        cache = AdvertisementCache()
        config = PlatformConfig().with_overrides(
            srdi_push_interval=interval, startup_jitter=0.0
        )
        sent = []
        pusher = SrdiPusher(sim, cache, config, sent.append)
        return sim, cache, pusher, sent

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

    def test_remote_advertisements_not_pushed(self):
        sim, cache, pusher, sent = self._setup()
        pusher.start()
        cache.store_remote(FakeAdvertisement("alpha"), now=0.0, expiration=3600.0)
        sim.run(until=100.0)
        assert sent == []
