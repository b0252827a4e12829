"""Unit tests for the discovery service and the LC-DHT."""

import pytest

from repro.advertisement import FakeAdvertisement, PeerAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.network.latency import ConstantLatency
from repro.sim import MINUTES, SECONDS, Simulator


def build(r=6, e=2, seed=1, attachment=None, latency=0.002, **overrides):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(latency))
    config = PlatformConfig().with_overrides(**overrides)
    overlay = build_overlay(
        sim, net, config,
        OverlayDescription(
            rendezvous_count=r, edge_count=e, edge_attachment=attachment
        ),
    )
    overlay.start()
    return sim, overlay


def converge(sim, overlay, minutes=10):
    sim.run(until=minutes * MINUTES)
    assert overlay.group.property_2_satisfied()
    assert overlay.group.connected_edge_count() == len(overlay.edges)


class TestPublish:
    def test_srdi_reaches_rdv_and_replica(self):
        sim, overlay = build(r=6, e=1, attachment=[0])
        converge(sim, overlay)
        edge = overlay.edges[0]
        edge.discovery.publish(FakeAdvertisement("Test"), expiration=2 * 3600)
        sim.run(until=sim.now + 2 * MINUTES)  # SRDI push interval
        own_rdv = overlay.rendezvous[0]
        tuple_key = ("repro:FakeAdvertisement", "Name", "Test")
        # the edge's own rendezvous stores the tuple (Figure 2, step 1)
        assert own_rdv.discovery.srdi.lookup(tuple_key, sim.now)
        # the tuple is replicated somewhere in the rendezvous network
        holders = [
            rdv for rdv in overlay.rendezvous
            if rdv.discovery.srdi.lookup(tuple_key, sim.now)
        ]
        assert len(holders) >= 2 or (
            len(holders) == 1 and holders[0] is own_rdv
        )

    def test_publish_on_rendezvous_indexes_immediately(self):
        sim, overlay = build(r=4, e=0)
        converge(sim, overlay)
        rdv = overlay.rendezvous[0]
        rdv.discovery.publish(FakeAdvertisement("Local"))
        sim.run(until=sim.now + 1 * MINUTES)
        key = ("repro:FakeAdvertisement", "Name", "Local")
        holders = [
            r for r in overlay.rendezvous if r.discovery.srdi.lookup(key, sim.now)
        ]
        assert rdv in holders

    def test_replica_copy_is_not_rereplicated(self):
        sim, overlay = build(r=6, e=1, attachment=[0])
        converge(sim, overlay)
        overlay.edges[0].discovery.publish(FakeAdvertisement("Once"))
        sim.run(until=sim.now + 2 * MINUTES)
        key = ("repro:FakeAdvertisement", "Name", "Once")
        holders = [
            r for r in overlay.rendezvous if r.discovery.srdi.lookup(key, sim.now)
        ]
        # exactly the edge's rdv + at most one replica peer
        assert 1 <= len(holders) <= 2


class TestDiscovery:
    def test_end_to_end_lookup(self):
        sim, overlay = build(r=6, e=2, attachment=[0, 1])
        converge(sim, overlay)
        publisher, searcher = overlay.edges
        publisher.discovery.publish(FakeAdvertisement("Test", payload="data"))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "Test",
            callback=lambda advs, lat: results.append((advs, lat)),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert len(results) == 1
        advs, latency = results[0]
        assert advs[0].name == "Test"
        assert 0 < latency < 1.0

    def test_searcher_caches_result(self):
        sim, overlay = build(r=6, e=2, attachment=[0, 1])
        converge(sim, overlay)
        publisher, searcher = overlay.edges
        publisher.discovery.publish(FakeAdvertisement("Test"))
        sim.run(until=sim.now + 2 * MINUTES)
        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "Test",
            callback=lambda advs, lat: None,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        cached = searcher.cache.search(
            "repro:FakeAdvertisement", "Name", "Test", sim.now
        )
        assert len(cached) == 1

    def test_miss_times_out(self):
        sim, overlay = build(r=4, e=1, attachment=[0])
        converge(sim, overlay)
        searcher = overlay.edges[0]
        timeouts = []
        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "DoesNotExist",
            callback=lambda advs, lat: pytest.fail("should not succeed"),
            on_timeout=lambda: timeouts.append(1),
            timeout=20 * SECONDS,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert timeouts == [1]

    def test_rendezvous_can_search_too(self):
        # "for rendezvous peers this step is not necessary as they act
        # as their own rendezvous" (§3.3)
        sim, overlay = build(r=5, e=1, attachment=[0])
        converge(sim, overlay)
        overlay.edges[0].discovery.publish(FakeAdvertisement("FromEdge"))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        overlay.rendezvous[3].discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "FromEdge",
            callback=lambda advs, lat: results.append(advs),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert len(results) == 1

    def test_peer_advertisement_discovery_like_paper(self):
        # §3.3's worked example: a peer advertisement indexed on
        # Name=Test
        sim, overlay = build(r=6, e=2, attachment=[0, 1])
        converge(sim, overlay)
        publisher, searcher = overlay.edges
        adv = PeerAdvertisement(
            publisher.peer_id, publisher.group_id, "Test"
        )
        publisher.discovery.publish(adv)
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        searcher.discovery.get_remote_advertisements(
            "jxta:PA", "Name", "Test",
            callback=lambda advs, lat: results.append(advs),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert results and results[0][0].peer_id == publisher.peer_id

    def test_wildcard_query(self):
        """Every fnmatch metacharacter the cache globs on — ``[..]``
        classes included — must also make the query walk: a pattern
        hashed as a literal is replica-routed to a rendezvous that can
        only look it up exactly, and finds nothing."""
        for seed in (1, 2, 3):
            sim, overlay = build(r=8, e=2, seed=seed, attachment=[0, 4])
            converge(sim, overlay)
            publisher, searcher = overlay.edges
            publisher.discovery.publish(FakeAdvertisement("sensor-12"))
            sim.run(until=sim.now + 2 * MINUTES)
            for pattern in ("sensor-*", "sensor-1?", "sensor-[12]2", "sensor-1[!3]"):
                results = []
                searcher.discovery.get_remote_advertisements(
                    "repro:FakeAdvertisement", "Name", pattern,
                    callback=lambda advs, lat: results.append(advs),
                )
                sim.run(until=sim.now + 1 * MINUTES)
                assert results and results[0][0].name == "sensor-12", (
                    seed, pattern,
                )


class TestWalkFallback:
    def test_lookup_succeeds_despite_replica_mismatch(self):
        """Force inconsistent peerviews by hiding a rendezvous from the
        searcher's rdv view: the walk must still find the resource."""
        sim, overlay = build(r=8, e=2, attachment=[0, 4])
        converge(sim, overlay)
        publisher, searcher = overlay.edges
        publisher.discovery.publish(FakeAdvertisement("WalkMe"))
        sim.run(until=sim.now + 2 * MINUTES)

        # amputate the searcher-side rendezvous' peerview so its
        # replica computation disagrees with everyone else's; the
        # extreme entries are kept so both walk directions still start
        # (a view that believes it is the end of the ID order walks one
        # way only — a faithful LC-DHT failure mode, tested separately)
        searcher_rdv = overlay.rendezvous[4]
        ordered = sorted(searcher_rdv.view.known_ids())
        victims = ordered[1:-1:2]
        for pid in victims:
            searcher_rdv.view.remove(pid, sim.now, reason="test-amputation")

        results = []
        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "WalkMe",
            callback=lambda advs, lat: results.append((advs, lat)),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert len(results) == 1

    def test_walk_steps_counted(self):
        sim, overlay = build(r=8, e=1, attachment=[0])
        converge(sim, overlay)
        searcher = overlay.edges[0]
        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "Nothing",
            callback=lambda advs, lat: None,
            on_timeout=lambda: None,
            timeout=20 * SECONDS,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        total_walk = sum(
            r.discovery.walk_steps for r in overlay.rendezvous
        )
        # a complete both-direction walk touches every rendezvous once
        assert total_walk >= overlay.group.r - 2


class TestThreshold:
    def test_threshold_collects_multiple_publishers(self):
        sim, overlay = build(r=4, e=3, attachment=[0, 1, 2])
        converge(sim, overlay)
        e1, e2, searcher = overlay.edges
        # two different advertisements share the indexed Name value
        e1.discovery.publish(FakeAdvertisement("Shared", payload="a"))
        e2.discovery.publish(FakeAdvertisement("Shared", payload="b"))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "Shared",
            callback=lambda advs, lat: results.append(advs),
            threshold=2,
            timeout=30 * SECONDS,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert len(results) == 1
        # both publishers' payloads present (same unique_key... they
        # dedup by key, so at least one arrives; threshold waits for 2
        # distinct advertisements only if keys differ)
        assert len(results[0]) >= 1


class TestBootPublication:
    def test_peers_are_discoverable_by_name_automatically(self):
        # every peer publishes its own peer advertisement at start
        sim, overlay = build(r=4, e=2, attachment=[0, 2])
        converge(sim, overlay)
        sim.run(until=sim.now + 2 * MINUTES)  # SRDI propagation
        results = []
        overlay.edges[1].discovery.get_remote_advertisements(
            "jxta:PA", "Name", "edge-0",
            callback=lambda advs, lat: results.append(advs),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert results
        assert results[0][0].peer_id == overlay.edges[0].peer_id


class TestReplicaPublisherIdentity:
    def test_replica_record_names_the_edge_not_the_forwarding_rdv(self):
        # regression: replica copies travel rendezvous-to-rendezvous,
        # but the stored publisher must remain the ORIGINAL edge;
        # recording the forwarding rendezvous made lookups forward
        # queries to a rendezvous, which re-walked them forever
        sim, overlay = build(r=6, e=1, attachment=[0])
        converge(sim, overlay)
        edge = overlay.edges[0]
        edge.discovery.publish(FakeAdvertisement("Identity"))
        sim.run(until=sim.now + 2 * MINUTES)
        key = ("repro:FakeAdvertisement", "Name", "Identity")
        rdv_ids = {r.peer_id for r in overlay.rendezvous}
        found_any = False
        for rdv in overlay.rendezvous:
            for record in rdv.discovery.srdi.lookup(key, sim.now):
                found_any = True
                assert record.publisher == edge.peer_id
                assert record.publisher not in rdv_ids
        assert found_any

    def test_wildcard_walk_collects_across_rendezvous(self):
        # three publishers on three different rendezvous; a threshold-3
        # wildcard query must walk past the first hit and terminate
        sim, overlay = build(r=6, e=4, attachment=[0, 1, 2, 3])
        converge(sim, overlay)
        for i, edge in enumerate(overlay.edges[:3]):
            edge.discovery.publish(FakeAdvertisement(f"svc-{i}"))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        client = overlay.edges[3]
        client.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "svc-*",
            callback=lambda advs, lat: results.append(advs),
            threshold=3, timeout=20 * SECONDS,
        )
        events_before = sim.events_fired
        sim.run(until=sim.now + 1 * MINUTES)
        assert results and len(results[0]) == 3
        # and the walk terminated (no runaway event loop)
        assert sim.events_fired - events_before < 5000


class TestCosts:
    def test_srdi_store_size_increases_processing_delay(self):
        cfg = PlatformConfig()
        assert cfg.srdi_match_cost > 0
        sim, overlay = build(r=2, e=2, attachment=[0, 0])
        converge(sim, overlay)
        noiser, searcher = overlay.edges
        for i in range(50):
            noiser.discovery.publish(FakeAdvertisement(f"fake-{i}"))
        sim.run(until=sim.now + 2 * MINUTES)
        assert len(overlay.rendezvous[0].discovery.srdi) >= 50
