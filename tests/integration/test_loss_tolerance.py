"""Integration: protocol behaviour under message loss.

The paper's testbed was loss-free; these tests verify the reproduction
degrades gracefully when it isn't — the periodic nature of every
protocol (probes, SRDI pushes, lease renewals) makes lost messages a
delay, not a failure.  Loss comes from one :class:`LossWindow` that
covers the whole run, applied by the fault engine.
"""

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.faults import LossWindow, Scenario, ScenarioEngine, peers_of
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator


def build(loss_rate, seed=19, r=8, e=2):
    sim = Simulator(seed=seed)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(
            rendezvous_count=r, edge_count=e,
            edge_attachment=[0, r // 2][:e],
        ),
    )
    scenario = Scenario(
        name="loss",
        actions=(LossWindow(at=0.0, duration=1 * HOURS, rate=loss_rate),),
    )
    ScenarioEngine(sim, network, peers_of(overlay), scenario).start()
    overlay.start()
    return sim, network, overlay


class TestPeerviewUnderLoss:
    def test_converges_despite_5_percent_loss(self):
        sim, network, overlay = build(loss_rate=0.05)
        sim.run(until=20 * MINUTES)
        sizes = overlay.group.peerview_sizes()
        assert min(sizes) >= 6  # near-complete views of 7
        assert network.stats.messages_dropped > 0

    def test_leases_survive_loss(self):
        sim, network, overlay = build(loss_rate=0.05)
        sim.run(until=30 * MINUTES)
        assert overlay.group.connected_edge_count() == 2


class TestDiscoveryUnderLoss:
    def test_most_queries_succeed_with_retried_srdi(self):
        sim, network, overlay = build(loss_rate=0.03)
        sim.run(until=15 * MINUTES)
        publisher, searcher = overlay.edges
        publisher.discovery.publish(FakeAdvertisement("lossy"))
        sim.run(until=sim.now + 3 * MINUTES)

        outcomes = {"ok": 0, "fail": 0}

        def issue(remaining):
            searcher.cache.flush()
            searcher.discovery.get_remote_advertisements(
                "repro:FakeAdvertisement", "Name", "lossy",
                callback=lambda advs, lat: (
                    outcomes.__setitem__("ok", outcomes["ok"] + 1),
                    remaining > 1 and issue(remaining - 1),
                ),
                on_timeout=lambda: (
                    outcomes.__setitem__("fail", outcomes["fail"] + 1),
                    remaining > 1 and issue(remaining - 1),
                ),
                timeout=10.0,
            )

        issue(20)
        sim.run(until=sim.now + 20 * 11.0)
        total = outcomes["ok"] + outcomes["fail"]
        assert total == 20
        # individual queries may lose a hop, but most complete
        assert outcomes["ok"] >= 14, outcomes
