"""Integration: runs are bit-for-bit reproducible for a given seed."""

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.obs.tracer import PeerViewRecorder, TimelineTracer
from repro.sim import MINUTES, Simulator


def run_scenario(seed):
    sim = Simulator(seed=seed)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(
            rendezvous_count=10, edge_count=2, edge_attachment=[0, 5]
        ),
    )
    log = TimelineTracer()
    for rdv in overlay.rendezvous:
        rdv.view.add_listener(PeerViewRecorder(log, rdv.name))
    overlay.start()
    sim.run(until=15 * MINUTES)
    overlay.edges[0].discovery.publish(FakeAdvertisement("det"))
    sim.run(until=sim.now + 2 * MINUTES)
    latencies = []
    overlay.edges[1].discovery.get_remote_advertisements(
        "repro:FakeAdvertisement", "Name", "det",
        callback=lambda advs, lat: latencies.append(lat),
    )
    sim.run(until=sim.now + 1 * MINUTES)
    return {
        "events": [(e.t, e.actor, e.name, e.args) for e in log.events],
        "messages": network.stats.messages_sent,
        "bytes": network.stats.bytes_sent,
        "latencies": latencies,
        "fired": sim.events_fired,
        "views": [
            [p.short() for p in rdv.view.ordered_ids()]
            for rdv in overlay.rendezvous
        ],
    }


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = run_scenario(17)
        b = run_scenario(17)
        assert a["events"]
        assert a == b

    def test_different_seed_different_trajectory(self):
        a = run_scenario(17)
        b = run_scenario(18)
        # peer IDs differ, so the whole trajectory differs
        assert a["views"] != b["views"]

    def test_latency_values_reproducible(self):
        a = run_scenario(21)
        b = run_scenario(21)
        assert a["latencies"] == b["latencies"]
        assert len(a["latencies"]) == 1
