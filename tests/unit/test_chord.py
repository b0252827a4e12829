"""Unit tests for the Chord baseline."""

import math

import pytest

from repro.baselines.chord import (
    ChordRing,
    M,
    RING,
    chord_key,
    in_half_open_interval,
    in_open_interval,
)
from repro.network import Network
from repro.network.latency import ConstantLatency
from repro.network.site import place_nodes
from repro.sim import MINUTES, Simulator


def build_ring(n, static=True, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.002))
    ring = ChordRing(sim, net, place_nodes(n), static_build=static)
    ring.start()
    return sim, ring


class TestIntervals:
    def test_open_interval_simple(self):
        assert in_open_interval(5, 1, 10)
        assert not in_open_interval(1, 1, 10)
        assert not in_open_interval(10, 1, 10)

    def test_open_interval_wrapping(self):
        assert in_open_interval(RING - 1, RING - 10, 5)
        assert in_open_interval(2, RING - 10, 5)
        assert not in_open_interval(100, RING - 10, 5)

    def test_half_open_includes_upper(self):
        assert in_half_open_interval(10, 1, 10)
        assert not in_half_open_interval(1, 1, 10)


class TestChordKey:
    def test_range(self):
        for name in ("a", "b", "JuxMem", "x" * 50):
            assert 0 <= chord_key(name) < RING

    def test_deterministic(self):
        assert chord_key("x") == chord_key("x")


class TestStaticRing:
    def test_static_build_is_correct(self):
        _, ring = build_ring(16)
        assert ring.is_correct()

    def test_lookup_reaches_responsible_node(self):
        sim, ring = build_ring(16)
        key = chord_key("resource")
        results = []
        ring.members[0].lookup(key, lambda addr, k, hops: results.append((addr, k, hops)))
        sim.run(until=1 * MINUTES)
        assert len(results) == 1
        addr, k, hops = results[0]
        # verify against ground truth: first member with key >= lookup key
        keys = [m.key for m in ring.members]
        import bisect
        expected = ring.members[bisect.bisect_left(keys, key) % len(keys)]
        assert addr == expected.address

    def test_lookup_hops_logarithmic(self):
        sim, ring = build_ring(64)
        hops_seen = []
        for i in range(50):
            ring.members[i % 64].lookup(
                chord_key(f"res-{i}"),
                lambda addr, k, hops: hops_seen.append(hops),
            )
        sim.run(until=5 * MINUTES)
        assert len(hops_seen) == 50
        mean_hops = sum(hops_seen) / len(hops_seen)
        # Chord's expected path length is ~0.5 * log2(n) = 3 for n=64
        assert mean_hops <= math.log2(64)
        assert max(hops_seen) <= 2 * math.log2(64)

    def test_put_get_roundtrip(self):
        sim, ring = build_ring(16)
        ring.members[3].put("juxmem-block-1", {"data": 42})
        sim.run(until=1 * MINUTES)
        results = []
        ring.members[9].get(
            "juxmem-block-1",
            lambda found, value, hops: results.append((found, value, hops)),
        )
        sim.run(until=2 * MINUTES)
        assert results and results[0][0] is True
        assert results[0][1] == {"data": 42}

    def test_get_missing_key(self):
        sim, ring = build_ring(8)
        results = []
        ring.members[0].get(
            "never-stored",
            lambda found, value, hops: results.append(found),
        )
        sim.run(until=1 * MINUTES)
        assert results == [False]

    def test_single_node_ring(self):
        sim, ring = build_ring(1)
        results = []
        ring.members[0].put("x", 1)
        sim.run(until=1 * MINUTES)
        ring.members[0].get("x", lambda f, v, h: results.append((f, v)))
        sim.run(until=2 * MINUTES)
        assert results == [(True, 1)]


class TestDynamicJoin:
    def test_join_and_stabilize_converges(self):
        sim, ring = build_ring(8, static=False)
        sim.run(until=60 * MINUTES)
        assert ring.is_correct()

    def test_lookups_work_after_convergence(self):
        sim, ring = build_ring(8, static=False)
        sim.run(until=60 * MINUTES)
        results = []
        ring.members[2].put("k", "v")
        sim.run(until=sim.now + 1 * MINUTES)
        ring.members[5].get("k", lambda f, v, h: results.append((f, v)))
        sim.run(until=sim.now + 2 * MINUTES)
        assert results == [(True, "v")]


class TestValidation:
    def test_empty_ring_rejected(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        with pytest.raises(ValueError):
            ChordRing(sim, net, [])
