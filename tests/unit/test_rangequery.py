"""Unit tests for the range-query extension (§5 future work)."""

import pytest

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.discovery.rangequery import (
    is_range_query,
    numeric_value,
    parse_range_spec,
    range_spec,
    tuple_in_range,
)
from repro.network import Network
from repro.sim import MINUTES, SECONDS, Simulator


class TestSpecCodec:
    def test_roundtrip(self):
        assert parse_range_spec(range_spec(10.0, 20.0)) == (10.0, 20.0)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            range_spec(20.0, 10.0)

    def test_non_range_values(self):
        assert parse_range_spec("plain") is None
        assert parse_range_spec("10") is None
        assert parse_range_spec("a..b") is None
        assert parse_range_spec("20..10") is None  # inverted

    def test_is_range_query(self):
        assert is_range_query("1..2")
        assert not is_range_query("Test")
        assert not is_range_query("sensor-*")

    def test_degenerate_point_range(self):
        assert parse_range_spec("5.0..5.0") == (5.0, 5.0)


class TestNumericValue:
    def test_plain_numbers(self):
        assert numeric_value("1024") == 1024.0
        assert numeric_value("-3.5") == -3.5

    def test_non_numeric(self):
        assert numeric_value("Test") is None
        assert numeric_value("") is None


class TestTupleInRange:
    def test_matching(self):
        t = ("repro:FakeAdvertisement", "Name", "15")
        assert tuple_in_range(t, "repro:FakeAdvertisement", "Name", 10, 20)

    def test_wrong_type_or_attribute(self):
        t = ("repro:FakeAdvertisement", "Name", "15")
        assert not tuple_in_range(t, "jxta:PA", "Name", 10, 20)
        assert not tuple_in_range(t, "repro:FakeAdvertisement", "Id", 10, 20)

    def test_out_of_range(self):
        t = ("repro:FakeAdvertisement", "Name", "25")
        assert not tuple_in_range(t, "repro:FakeAdvertisement", "Name", 10, 20)

    def test_non_numeric_value_never_matches(self):
        t = ("repro:FakeAdvertisement", "Name", "Test")
        assert not tuple_in_range(t, "repro:FakeAdvertisement", "Name", 0, 1e9)


class TestLocalRangeMatches:
    def test_threshold_bounds_the_local_answer(self):
        # the range scan used to append before it tested the threshold,
        # so threshold=0 (reachable from get_remote_advertisements) got
        # one advertisement back
        from repro.discovery.service import DiscoveryQueryPayload
        from repro.network.site import place_nodes
        from repro.peergroup import PeerGroup

        sim = Simulator(seed=12)
        group = PeerGroup(sim, Network(sim), PlatformConfig())
        discovery = group.create_rendezvous(place_nodes(1)[0]).discovery
        for capacity in (100, 150, 900):
            discovery.cache.publish(FakeAdvertisement(str(capacity)), now=0.0)

        def names(threshold):
            payload = DiscoveryQueryPayload(
                "repro:FakeAdvertisement", "Name", range_spec(50, 200),
                threshold=threshold,
            )
            return [a.name for a in discovery._local_range_matches(payload, 1.0)]

        assert names(0) == []
        assert names(1) == ["100"]
        assert names(5) == ["100", "150"]


class TestEndToEndRangeDiscovery:
    def _overlay(self, seed=12):
        sim = Simulator(seed=seed)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(
                rendezvous_count=5, edge_count=4,
                edge_attachment=[0, 1, 2, 3],
            ),
        )
        overlay.start()
        sim.run(until=10 * MINUTES)
        assert overlay.group.property_2_satisfied()
        return sim, overlay

    def test_range_query_collects_matching_values(self):
        sim, overlay = self._overlay()
        # publishers advertise numeric capacities 100, 150, 900
        for edge, capacity in zip(overlay.edges[:3], (100, 150, 900)):
            edge.discovery.publish(FakeAdvertisement(str(capacity)))
        sim.run(until=sim.now + 2 * MINUTES)

        results = []
        overlay.edges[3].discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", range_spec(50, 200),
            callback=lambda advs, lat: results.append(advs),
            threshold=3, timeout=20 * SECONDS,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        # threshold 3 cannot be met (only two values in range): the
        # timeout delivers the partial results
        assert len(results) == 1
        assert sorted(a.name for a in results[0]) == ["100", "150"]

    def test_range_query_exact_threshold_returns_fast(self):
        sim, overlay = self._overlay()
        for edge, capacity in zip(overlay.edges[:3], (100, 150, 900)):
            edge.discovery.publish(FakeAdvertisement(str(capacity)))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        overlay.edges[3].discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", range_spec(50, 1000),
            callback=lambda advs, lat: results.append((advs, lat)),
            threshold=3, timeout=20 * SECONDS,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        advs, latency = results[0]
        assert len(advs) == 3
        assert latency < 1.0  # resolved by the walk, not the timeout

    def test_empty_range_times_out(self):
        sim, overlay = self._overlay()
        overlay.edges[0].discovery.publish(FakeAdvertisement("500"))
        sim.run(until=sim.now + 2 * MINUTES)
        timeouts = []
        overlay.edges[3].discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", range_spec(0, 10),
            callback=lambda advs, lat: pytest.fail("nothing should match"),
            on_timeout=lambda: timeouts.append(1),
            timeout=15 * SECONDS,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert timeouts == [1]

    def test_range_query_cost_is_linear_walk(self):
        sim, overlay = self._overlay()
        overlay.edges[0].discovery.publish(FakeAdvertisement("500"))
        sim.run(until=sim.now + 2 * MINUTES)
        # force the walk: the issuing rendezvous must not already index
        # the tuple (replica placement may have put it there)
        overlay.rendezvous[3].discovery.srdi.clear()
        results = []
        overlay.edges[3].discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", range_spec(400, 600),
            callback=lambda advs, lat: results.append(advs),
            threshold=1, timeout=20 * SECONDS,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert results
        # the range resolution walked the peerview
        assert sum(r.discovery.walk_steps for r in overlay.rendezvous) >= 1
