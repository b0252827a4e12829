"""Baseline comparison: LC-DHT vs classical DHT vs flooding vs central.

Quantifies the complexity claims of §3.3: "On an overlay gathering n
nodes, classical DHTs have a complexity in O(log n) for publishing
resources, whereas LC-DHT have a complexity in O(1) (2 messages in the
worst case). [...] if local peerviews [are consistent], the
complexity is only in O(1) (actually 4 messages in the worst case)."

Measured per strategy and overlay size:

* publish cost (messages to place the index);
* lookup latency and success;
* total network messages (maintenance included) — the "expensive
  traffic ... required by classical DHTs" trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.advertisement.testadv import FakeAdvertisement
from repro.baselines.centralized import build_centralized_overlay
from repro.baselines.chord import ChordRing, chord_key
from repro.baselines.flooding import build_flooding_overlay
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.experiments.common import mean_latency_ms, run_query_sequence, success_rate
from repro.metrics import render_table
from repro.network import Network
from repro.network.site import place_nodes
from repro.sim import HOURS, MINUTES, Simulator

#: lookups each strategy answers per r
QUERIES = 20
#: simulated time the JXTA strategies' overlays settle before publishing
WARMUP = 10 * MINUTES


@dataclass
class BaselinePoint:
    strategy: str
    r: int
    publish_messages: float
    lookup_ms: float
    lookup_hops: Optional[float]
    success: float
    total_messages: int


def _run_jxta_strategy(
    strategy: str, r: int, seed: int
) -> BaselinePoint:
    sim = Simulator(seed=seed)
    network = Network(sim)
    config = PlatformConfig()
    description = OverlayDescription(
        rendezvous_count=r, edge_count=2, edge_attachment=[0, (r // 2) % r]
    )
    builder = {
        "lcdht": build_overlay,
        "flood": build_flooding_overlay,
        "central": build_centralized_overlay,
    }[strategy]
    overlay = builder(sim, network, config, description)
    overlay.start()
    publisher, searcher = overlay.edges
    sim.run(until=WARMUP)

    before_publish = network.stats.messages_sent

    def srdi_traffic() -> int:
        # index-placement messages ride the resolver's SRDI channel
        # exclusively, so this counter isolates the publish cost from
        # concurrent peerview traffic exactly
        return sum(p.resolver.srdi_sent for p in overlay.group.all_peers)

    srdi_before = srdi_traffic()
    publisher.discovery.publish(
        FakeAdvertisement("BaselineTarget"), expiration=12 * HOURS
    )
    sim.run(until=sim.now + config.srdi_push_interval * 2)
    publish_messages = srdi_traffic() - srdi_before

    samples = run_query_sequence(
        sim, searcher, "repro:FakeAdvertisement", "Name", "BaselineTarget",
        count=QUERIES,
    )
    return BaselinePoint(
        strategy=strategy,
        r=r,
        publish_messages=publish_messages,
        lookup_ms=mean_latency_ms(samples),
        lookup_hops=None,
        success=success_rate(samples),
        total_messages=network.stats.messages_sent - before_publish,
    )


def _run_chord(r: int, seed: int) -> BaselinePoint:
    sim = Simulator(seed=seed)
    network = Network(sim)
    ring = ChordRing(sim, network, place_nodes(r), static_build=True)
    ring.start()
    sim.run(until=2 * MINUTES)

    before = network.stats.messages_sent
    publish_hops: List[int] = []
    ring.members[0].put(
        "BaselineTarget", {"adv": "payload"}, done=publish_hops.append
    )
    sim.run(until=sim.now + 1 * MINUTES)
    # publish cost = find_successor route + response + store message;
    # measured from the routing hop count so concurrent stabilization
    # traffic does not pollute the figure
    publish_messages = (publish_hops[0] + 2) if publish_hops else 0

    latencies: List[float] = []
    hops_seen: List[int] = []

    def issue(remaining: int) -> None:
        started = sim.now

        def on_result(found: bool, value, hops: int) -> None:
            if found:
                latencies.append(sim.now - started)
                hops_seen.append(hops)
            if remaining > 1:
                issue(remaining - 1)

        searcher = ring.members[len(ring.members) // 2]
        searcher.get("BaselineTarget", on_result)

    issue(QUERIES)
    sim.run(until=sim.now + QUERIES * 2.0)
    return BaselinePoint(
        strategy="chord",
        r=r,
        publish_messages=float(publish_messages),
        lookup_ms=1000.0 * sum(latencies) / max(len(latencies), 1),
        lookup_hops=sum(hops_seen) / max(len(hops_seen), 1),
        success=len(latencies) / QUERIES,
        total_messages=network.stats.messages_sent - before,
    )


#: keyword arguments of :func:`run` per size
SIZES = {
    "ci": {"r_values": (8, 16, 32)},
    "full": {"r_values": (16, 32, 64, 128)},
}


def run(
    r_values: Sequence[int],
    seed: int = 1,
) -> List[BaselinePoint]:
    out: List[BaselinePoint] = []
    for r in r_values:
        for strategy in ("lcdht", "flood", "central"):
            out.append(_run_jxta_strategy(strategy, r, seed))
        out.append(_run_chord(r, seed))
    print(render(out))
    return out


def render(points: List[BaselinePoint]) -> str:
    rows = []
    for p in points:
        rows.append(
            [
                p.strategy,
                p.r,
                f"{p.publish_messages:.0f}",
                f"{p.lookup_ms:.1f}",
                f"{p.lookup_hops:.1f}" if p.lookup_hops is not None else "-",
                f"{p.success * 100:.0f}%",
                p.total_messages,
            ]
        )
    return (
        "Baseline comparison — publish cost and lookup latency\n\n"
        + render_table(
            [
                "strategy", "r", "publish msgs", "lookup ms",
                "lookup hops", "ok", "total msgs",
            ],
            rows,
        )
    )
