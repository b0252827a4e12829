"""Conformance tests: Algorithm 1, line by line.

Each test pins one line of the paper's pseudo-code against the
implementation's observable behaviour, reading the obs tracer's wire
view (``tests.wire``) where the behaviour is a wire action.
"""

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.rendezvous.messages import PeerViewProbe, PeerViewUpdate
from repro.sim import MINUTES, SECONDS, Simulator
from tests.wire import hops, trace_wire


def build(r=6, seed=2, **overrides):
    sim = Simulator(seed=seed)
    network = Network(sim)
    config = PlatformConfig().with_overrides(**overrides)
    overlay = build_overlay(
        sim, network, config, OverlayDescription(rendezvous_count=r)
    )
    return sim, network, overlay


class TestLine2_Wait:
    """`wait for PEERVIEW_INTERVAL` — the loop period is respected."""

    def test_iteration_period(self):
        sim, network, overlay = build(r=2, startup_jitter=0.0)
        overlay.start()
        rdv = overlay.rendezvous[1]  # has a seed to probe
        sim.run(until=10 * MINUTES)
        # immediate first tick + one per 30 s
        expected = 1 + int(10 * MINUTES // (30 * SECONDS))
        assert rdv.peerview_protocol._task.ticks == pytest.approx(expected, abs=1)


class TestLine3_Expiry:
    """`remove entries ... for which time > PVE_EXPIRATION`."""

    def test_stale_entry_removed_on_next_iteration(self):
        sim, network, overlay = build(r=2, pve_expiration=2 * MINUTES)
        overlay.start()
        sim.run(until=1 * MINUTES)
        a, b = overlay.rendezvous
        assert b.peer_id in a.view
        b.crash()  # b stops refreshing a's entry
        sim.run(until=6 * MINUTES)
        assert b.peer_id not in a.view


class TestLines5to12_NeighborBranch:
    """`for rdv in {upper_rdv, lower_rdv}: ...` with the rand()%3 coin."""

    def test_update_fraction_is_about_one_third_when_happy(self):
        sim, network, overlay = build(r=8)
        obs = trace_wire(network)
        overlay.start()
        sim.run(until=60 * MINUTES)
        updates = len(hops(obs, ("PeerViewUpdate",)))
        probes = len(hops(obs, ("PeerViewProbe",)))
        # neighbour traffic: probes also include verification/refresh
        # probes, so bound the ratio from the update side: updates are
        # sent only on the 1/3 branch of the neighbour loop
        neighbor_actions_lower_bound = updates * 3 * 0.6
        assert updates > 0
        assert probes > neighbor_actions_lower_bound / 3

    def test_no_updates_below_happy_size(self):
        # a 2-peer overlay never reaches HAPPY_SIZE=4: the l <
        # HAPPY_SIZE branch always probes, never updates
        sim, network, overlay = build(r=2)
        obs = trace_wire(network)
        overlay.start()
        sim.run(until=30 * MINUTES)
        assert hops(obs, ("PeerViewUpdate",)) == []

    def test_both_neighbors_contacted_each_iteration(self):
        sim, network, overlay = build(r=6, pve_expiration=90 * MINUTES)
        overlay.start()
        sim.run(until=10 * MINUTES)
        # the middle peer (by ID) has both neighbours; trace one interval
        middle = sorted(overlay.rendezvous, key=lambda p: p.peer_id)[2]
        upper = middle.view.neighbor_of(middle.view.local_peer_id, +1)
        lower = middle.view.neighbor_of(middle.view.local_peer_id, -1)
        assert upper is not None and lower is not None
        obs = trace_wire(network)
        sim.run(until=sim.now + 10 * MINUTES)
        upper_addr = overlay.group.peer(upper).address
        lower_addr = overlay.group.peer(lower).address
        contacted = {
            dst
            for src, dst, _ in hops(obs, ("PeerViewProbe", "PeerViewUpdate"))
            if src == middle.address
        }
        assert upper_addr in contacted
        assert lower_addr in contacted


class TestLines13to14_SeedProbing:
    """`if l < HAPPY_SIZE: probe seeds` (+ boot-time contact)."""

    def test_seeds_probed_at_boot(self):
        sim, network, overlay = build(r=3, startup_jitter=1.0)
        obs = trace_wire(network)
        overlay.start()
        sim.run(until=30 * SECONDS)
        # rdv-1's seed is rdv-0: the very first iteration probes it
        seed_hop = (
            overlay.rendezvous[1].address, overlay.rendezvous[0].address,
            "PeerViewProbe",
        )
        assert seed_hop in hops(obs)

    def test_unhappy_view_keeps_probing_seeds(self):
        # two peers: l stays at 1 < HAPPY_SIZE, so the seed is probed
        # every interval, not just at boot
        sim, network, overlay = build(r=2, startup_jitter=0.0)
        obs = trace_wire(network)
        overlay.start()
        sim.run(until=10 * MINUTES)
        seed_hop = (
            overlay.rendezvous[1].address, overlay.rendezvous[0].address,
            "PeerViewProbe",
        )
        assert hops(obs).count(seed_hop) >= 10

    def test_happy_view_stops_probing_seeds(self):
        sim, network, overlay = build(r=8, pve_expiration=90 * MINUTES)
        overlay.start()
        sim.run(until=10 * MINUTES)  # views complete (7 >= HAPPY_SIZE)
        rdv1 = overlay.rendezvous[1]
        seed_addr = overlay.rendezvous[0].address
        obs = trace_wire(network)
        sim.run(until=sim.now + 10 * MINUTES)
        # rdv-1 may still probe rdv-0 as a neighbour/refresh target,
        # but never via the seed branch; distinguish by rate: the seed
        # branch would add one probe *every* interval (20 over 10 min)
        seed_hop = (rdv1.address, seed_addr, "PeerViewProbe")
        assert hops(obs).count(seed_hop) < 20


class TestProbeResponseContract:
    """§3.2: response + separate referral; referred peers are verified."""

    def test_probe_yields_response_and_referral(self):
        sim, network, overlay = build(r=6)
        obs = trace_wire(network)
        overlay.start()
        sim.run(until=10 * MINUTES)
        sent = {type_name for _, _, type_name in hops(obs)}
        assert {"PeerViewResponse", "PeerViewReferral"} <= sent

    def test_verification_probes_do_not_solicit_referrals(self):
        sim, network, overlay = build(r=6)
        captured = []
        original_send = network.send

        def spy(src, dst, payload, size_bytes=512, on_drop=None):
            body = getattr(payload, "body", None)
            if isinstance(body, PeerViewProbe) and not body.want_referral:
                captured.append((src, dst))
            return original_send(
                src, dst, payload, size_bytes=size_bytes, on_drop=on_drop
            )

        network.send = spy
        overlay.start()
        sim.run(until=10 * MINUTES)
        # verification probes exist (unknown referred peers were probed)
        assert captured
