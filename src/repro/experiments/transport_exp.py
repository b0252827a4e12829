"""Transport ablation: TCP vs HTTP (relayed) edges.

Figure 1 lists "TCP, HTTP, etc" as the physical transports under the
JXTA stack; the paper's runs "used and configured [JXTA-C] to use TCP
as the underlying transport protocol" (§4).  This ablation quantifies
what that choice was worth: the same discovery benchmark with the
searcher edge on TCP versus behind an HTTP relay (inbound traffic
queued at its rendezvous, drained by polling).

The companion studies the paper cites ([3, 4], JXTA communication-
layer evaluations) measured exactly this kind of HTTP penalty; here it
shows up as ≈ poll_interval/2 added to every inbound message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.advertisement.testadv import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.experiments.common import (
    DiscoverySample,
    mean_latency_ms,
    run_query_sequence,
    success_rate,
)
from repro.metrics import render_table
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator


@dataclass
class TransportPoint:
    transport: str
    poll_interval: float
    mean_ms: float
    success: float


def run_point(
    transport: str,
    r: int = 8,
    queries: int = 30,
    seed: int = 1,
    warmup: float = 12 * MINUTES,
    poll_interval: float = 2.0,
) -> TransportPoint:
    sim = Simulator(seed=seed)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=r, edge_count=1,
                           edge_attachment=[0]),
    )
    searcher = overlay.group.create_edge(
        overlay.rendezvous[r // 2].node,
        seeds=[overlay.rendezvous[r // 2].address],
        transport=transport,
    )
    if searcher.relay_client is not None:
        searcher.relay_client.poll_interval = poll_interval
        searcher.relay_client._poll_task.interval = poll_interval
    overlay.start()
    sim.run(until=2 * MINUTES)
    overlay.edges[0].discovery.publish(
        FakeAdvertisement("TransportTarget"), expiration=12 * HOURS
    )
    sim.run(until=warmup)
    samples = run_query_sequence(
        sim, searcher, "repro:FakeAdvertisement", "Name", "TransportTarget",
        count=queries,
    )
    return TransportPoint(
        transport=transport,
        poll_interval=poll_interval if transport == "http" else 0.0,
        mean_ms=mean_latency_ms(samples),
        success=success_rate(samples),
    )


#: keyword arguments of :func:`run` per size
SIZES = {
    size: {"poll_intervals": (0.5, 2.0, 5.0), "r": r, "queries": queries}
    for size, r, queries in (("ci", 8, 30), ("full", 16, 60))
}


def run(
    poll_intervals: Sequence[float],
    r: int = 8,
    queries: int = 30,
    seed: int = 1,
) -> List[TransportPoint]:
    out = [run_point("tcp", r=r, queries=queries, seed=seed)]
    print("# tcp baseline done", flush=True)
    for interval in poll_intervals:
        print(f"# http poll_interval={interval}s ...", flush=True)
        out.append(
            run_point(
                "http", r=r, queries=queries, seed=seed,
                poll_interval=interval,
            )
        )
    print(render(out))
    return out


def render(points: List[TransportPoint]) -> str:
    rows = []
    for p in points:
        label = (
            "tcp" if p.transport == "tcp"
            else f"http (poll {p.poll_interval:.1f}s)"
        )
        rows.append([label, f"{p.mean_ms:.1f}", f"{p.success * 100:.0f}%"])
    return (
        "Transport ablation — discovery latency, TCP vs HTTP relay\n\n"
        + render_table(["transport", "mean ms", "ok"], rows)
    )
