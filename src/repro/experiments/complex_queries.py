"""Complex queries: exact vs wildcard vs range cost (§5 future work).

"Further experiments should also evaluate the mechanisms used by
JXTA-C to address complex queries, such as range queries."

For each overlay size the experiment publishes K numeric advertisements
from distinct edges, then measures from a searcher edge:

* an **exact** lookup (hash-routed, O(1) on consistent views);
* a **wildcard** lookup collecting every publisher (walk, O(r));
* a **range** lookup covering half the published values (walk, O(r)).

The comparison quantifies what the LC-DHT's hash routing buys for
exact lookups and what complex queries cost without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.advertisement.testadv import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.discovery.rangequery import range_spec
from repro.experiments.common import DiscoverySample, mean_latency_ms
from repro.metrics import render_table
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator


@dataclass
class ComplexQueryPoint:
    r: int
    kind: str  # "exact" | "wildcard" | "range"
    mean_ms: float
    results_found: int
    walk_steps: int


def run_point(
    r: int,
    publishers: int = 8,
    queries: int = 20,
    seed: int = 1,
    warmup: float = 12 * MINUTES,
) -> List[ComplexQueryPoint]:
    sim = Simulator(seed=seed)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(
            rendezvous_count=r,
            edge_count=publishers + 1,
            edge_attachment=[i % r for i in range(publishers + 1)],
        ),
    )
    overlay.start()
    sim.run(until=2 * MINUTES)
    # numeric values 100, 200, ..., one per publisher
    for i, edge in enumerate(overlay.edges[:publishers]):
        edge.discovery.publish(
            FakeAdvertisement(str((i + 1) * 100)), expiration=12 * HOURS
        )
    searcher = overlay.edges[publishers]
    sim.run(until=warmup)

    half = publishers // 2

    specs = [
        ("exact", "100", 1),
        ("wildcard", "*00", publishers),
        ("range", range_spec(100, half * 100), half),
    ]
    out: List[ComplexQueryPoint] = []
    for kind, value, threshold in specs:
        samples: List[DiscoverySample] = []
        found_counts: List[int] = []
        walk_before = sum(p.discovery.walk_steps for p in overlay.rendezvous)

        def issue() -> None:
            searcher.cache.flush()

            def on_result(advs, latency):
                samples.append(DiscoverySample(latency, True))
                found_counts.append(len(advs))
                if len(samples) < queries:
                    issue()

            def on_timeout():
                samples.append(DiscoverySample(20.0, False))
                found_counts.append(0)
                if len(samples) < queries:
                    issue()

            searcher.discovery.get_remote_advertisements(
                "repro:FakeAdvertisement", "Name", value,
                callback=on_result, on_timeout=on_timeout,
                threshold=threshold, timeout=20.0,
            )

        issue()
        sim.run(until=sim.now + queries * 25.0)
        walk_after = sum(p.discovery.walk_steps for p in overlay.rendezvous)
        out.append(
            ComplexQueryPoint(
                r=r,
                kind=kind,
                mean_ms=mean_latency_ms(samples),
                results_found=max(found_counts),
                walk_steps=walk_after - walk_before,
            )
        )
    return out


#: keyword arguments of :func:`run` per size
SIZES = {
    "ci": {"r_values": (8, 16, 32)},
    "full": {"r_values": (16, 32, 64, 96)},
}


def run(
    r_values: Sequence[int],
    seed: int = 1,
) -> List[ComplexQueryPoint]:
    out: List[ComplexQueryPoint] = []
    for r in r_values:
        print(f"# complex queries at r={r} ...", flush=True)
        out.extend(run_point(r, seed=seed))
    print(render(out))
    return out


def render(points: List[ComplexQueryPoint]) -> str:
    rows = [
        [p.r, p.kind, f"{p.mean_ms:.1f}", p.results_found, p.walk_steps]
        for p in points
    ]
    return (
        "Complex queries — exact vs wildcard vs range\n\n"
        + render_table(
            ["r", "kind", "mean ms", "results", "walk steps"], rows
        )
    )
