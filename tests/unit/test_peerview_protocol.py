"""Unit tests for the peerview protocol (Algorithm 1)."""

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.network.latency import ConstantLatency
from repro.sim import MINUTES, SECONDS, Simulator


def build_rdv_overlay(
    r,
    topology="chain",
    seed=1,
    latency=0.002,
    options=None,
    **config_overrides,
):
    sim = Simulator(seed=seed, options=options)
    net = Network(sim, latency=ConstantLatency(latency))
    config = PlatformConfig().with_overrides(**config_overrides)
    overlay = build_overlay(
        sim, net, config, OverlayDescription(rendezvous_count=r, topology=topology)
    )
    overlay.start()
    return sim, overlay


class TestConvergence:
    def test_small_chain_satisfies_property_2(self):
        sim, overlay = build_rdv_overlay(8)
        sim.run(until=10 * MINUTES)
        assert overlay.group.property_2_satisfied()
        assert overlay.group.peerview_sizes() == [7] * 8

    def test_tree_converges_too(self):
        sim, overlay = build_rdv_overlay(8, topology="tree")
        sim.run(until=10 * MINUTES)
        assert overlay.group.property_2_satisfied()

    def test_star_converges(self):
        sim, overlay = build_rdv_overlay(8, topology="star")
        sim.run(until=10 * MINUTES)
        assert overlay.group.property_2_satisfied()

    def test_singleton_rendezvous_is_trivially_complete(self):
        sim, overlay = build_rdv_overlay(1)
        sim.run(until=5 * MINUTES)
        assert overlay.group.property_2_satisfied()
        assert overlay.group.peerview_sizes() == [0]

    def test_deterministic_given_seed(self):
        def run(seed):
            sim, overlay = build_rdv_overlay(6, seed=seed)
            sim.run(until=5 * MINUTES)
            return [
                [p.short() for p in r.view.ordered_ids()]
                for r in overlay.rendezvous
            ]

        assert run(3) == run(3)
        # different seed gives different peer IDs
        assert run(3) != run(4)


class TestExpirationDynamics:
    def test_short_expiration_causes_decay(self):
        # with a PVE_EXPIRATION shorter than the refresh supply, the
        # peerview cannot hold every peer (the paper's core finding)
        sim, overlay = build_rdv_overlay(
            16,
            pve_expiration=2 * MINUTES,
            startup_jitter=5 * SECONDS,
        )
        sim.run(until=4 * MINUTES)
        peak = max(overlay.group.peerview_sizes())
        sim.run(until=20 * MINUTES)
        # views fluctuate below the maximum: Property (2) violated
        assert not overlay.group.property_2_satisfied()
        assert max(overlay.group.peerview_sizes()) <= peak

    def test_long_expiration_keeps_views_full(self):
        # Figure 4 left: PVE_EXPIRATION > experiment duration keeps l at r-1
        sim, overlay = build_rdv_overlay(16, pve_expiration=10_000 * MINUTES)
        sim.run(until=30 * MINUTES)
        assert overlay.group.property_2_satisfied()


class TestProtocolTraffic:
    def test_probes_generate_responses_and_referrals(self):
        sim, overlay = build_rdv_overlay(6)
        sim.run(until=5 * MINUTES)
        protos = [r.peerview_protocol for r in overlay.rendezvous]
        assert sum(p.probes_sent for p in protos) > 0
        assert sum(p.responses_sent for p in protos) > 0
        assert sum(p.referrals_sent for p in protos) > 0

    def test_updates_sent_once_happy(self):
        # once l >= HAPPY_SIZE the rand()%3 branch produces updates
        sim, overlay = build_rdv_overlay(10)
        sim.run(until=20 * MINUTES)
        assert sum(
            r.peerview_protocol.updates_sent for r in overlay.rendezvous
        ) > 0

    def test_stop_halts_probing(self):
        sim, overlay = build_rdv_overlay(4)
        sim.run(until=3 * MINUTES)
        rdv = overlay.rendezvous[0]
        sent_before = rdv.peerview_protocol.probes_sent
        rdv.stop()
        sim.run(until=20 * MINUTES)
        assert rdv.peerview_protocol.probes_sent == sent_before

    def test_routes_learned_for_view_members(self):
        sim, overlay = build_rdv_overlay(6)
        sim.run(until=5 * MINUTES)
        rdv = overlay.rendezvous[0]
        for member in rdv.view.known_ids():
            assert rdv.router.has_route(member)


class TestFailureHandling:
    def test_dead_peer_eventually_expires_from_views(self):
        sim, overlay = build_rdv_overlay(
            6, pve_expiration=3 * MINUTES
        )
        sim.run(until=6 * MINUTES)
        victim = overlay.rendezvous[2]
        victim_id = victim.peer_id
        victim.crash()
        sim.run(until=20 * MINUTES)
        for rdv in overlay.rendezvous:
            if rdv is victim:
                continue
            assert victim_id not in rdv.view, (
                f"{rdv.name} still lists the crashed rendezvous"
            )

    def test_seed_down_at_bootstrap_does_not_wedge(self):
        # rdv-0 (the chain seed of rdv-1) never starts; others still
        # find each other through rdv-1's retries and referrals
        sim, overlay = build_rdv_overlay(5)
        # stop rdv-0 immediately (it was started by build_rdv_overlay)
        overlay.rendezvous[0].crash()
        sim.run(until=15 * MINUTES)
        alive = overlay.rendezvous[1:]
        sizes = [r.view.size for r in alive]
        assert all(s == 3 for s in sizes), sizes
