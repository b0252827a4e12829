"""Integration: Figure 2's message counts, on the whole network.

§3.3's complexity claims on consistent peerviews: publication is O(1)
("2 messages in the worst case": SRDI push to the edge's rendezvous +
one replica copy) and lookup is O(1) ("actually 4 messages in the worst
case": edge → rendezvous → replica → publisher → searcher).  The
peerview protocol keeps running during the measurements, so each window
is corrected by an equal-length control window of pure background
traffic measured right before it.  ``test_fig2_message_walkthrough``
pins the same paths message by message.
"""

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator


def test_fig2_publish_and_lookup_paths():
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=8, edge_count=2, edge_attachment=[0, 4]),
    )
    overlay.start()
    sim.run(until=10 * MINUTES)
    assert overlay.group.property_2_satisfied()
    publisher, searcher = overlay.edges

    def window(action) -> int:
        control_start = network.stats.messages_sent
        sim.run(until=sim.now + 5.0)
        background = network.stats.messages_sent - control_start
        start = network.stats.messages_sent
        action()
        sim.run(until=sim.now + 5.0)
        return max(0, (network.stats.messages_sent - start) - background)

    def publish():
        publisher.discovery.publish(FakeAdvertisement("Fig2"), expiration=12 * HOURS)
        publisher.discovery.pusher.push_now()

    latencies = []

    def lookup():
        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "Fig2",
            callback=lambda advs, latency: latencies.append(latency),
        )

    publish_traffic = window(publish)
    lookup_traffic = window(lookup)
    assert latencies  # found
    # O(1) paths: a handful of messages, not O(r) — the paper counts 2
    # for publication and 4 for lookup; the background correction is
    # statistical, so allow small residue
    assert publish_traffic <= 8
    assert lookup_traffic <= 10
    # consistent-peerview lookup sits in the paper's ~12 ms regime
    assert latencies[0] * 1000.0 < 40.0
