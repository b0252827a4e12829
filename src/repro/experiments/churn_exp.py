"""Volatility study: discovery under churn (the paper's future work).

"In particular, no volatility was introduced during the experiments.
For instance, it would be interesting to evaluate the behaviour of
[the] fall-back mechanism used for resource discovery under high
volatility" (§5).

The experiment churns rendezvous peers with exponential session/
downtime laws (the model family of the paper's refs [16, 18]), while a
publisher edge keeps republishing its advertisement and a searcher
issues a steady query stream.  The publisher's and searcher's own
rendezvous never churn (otherwise leases rather than the LC-DHT
dominate).  Reported per churn intensity: query success rate, mean
latency of successful queries, and walk traffic — quantifying how far
the walk fall-back compensates for stale replica placements.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.advertisement.testadv import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.experiments.common import (
    DiscoverySample,
    mean_latency_ms,
    success_rate,
)
from repro.metrics import render_table
from repro.network.churn import ChurnProcess, ExponentialChurn
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator
from repro.snapshot import CheckpointStore, warm_start


@dataclass
class ChurnPoint:
    r: int
    mean_session_minutes: float
    success: float
    mean_ms: float
    kills: int
    revives: int
    walk_steps: int


#: advertisements published before the churn starts, so replica
#: placements cover the whole hash space and most land on rendezvous
#: that will churn
TARGET_COUNT = 20

#: keyword arguments of :func:`run` per size: the session-length matrix
SIZES = {
    size: {"r": r, "sessions": (60 * MINUTES, 20 * MINUTES, 5 * MINUTES),
           "queries": 60}
    for size, r in (("ci", 16), ("full", 32))
}


def bootstrap_spec(
    r: int = 24,
    seed: int = 1,
    warmup: float = 15 * MINUTES,
    config: Optional[PlatformConfig] = None,
) -> Dict[str, Any]:
    """Checkpoint key for the churn bootstrap.  The churn laws
    (``mean_session``/``mean_downtime``) and ``queries`` are
    measurement-phase knobs — the whole session matrix at one (r, seed)
    shares a single warmed overlay."""
    return {
        "experiment": "churn",
        "r": r,
        "seed": seed,
        "warmup": warmup,
        "targets": TARGET_COUNT,
        "config": asdict(config or PlatformConfig()),
    }


def _bootstrap(key: Dict[str, Any]) -> Tuple[Network, Dict[str, Any]]:
    """Deploy, publish the churn targets and warm up: the churn-law-
    independent prefix of :func:`run_point`, built from its key."""
    r = key["r"]
    sim = Simulator(seed=key["seed"])
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(**key["config"]),
        OverlayDescription(
            rendezvous_count=r, edge_count=2,
            edge_attachment=[0, (r // 2) % r],
        ),
    )
    overlay.start()
    publisher = overlay.edges[0]
    sim.run(until=2 * MINUTES)
    for i in range(key["targets"]):
        publisher.discovery.publish(
            FakeAdvertisement(f"ChurnTarget-{i}"), expiration=12 * HOURS
        )
    sim.run(until=key["warmup"])
    return network, {"overlay": overlay}


def run_point(
    r: int = 24,
    mean_session: float = 20 * MINUTES,
    mean_downtime: float = 5 * MINUTES,
    queries: int = 60,
    seed: int = 1,
    warmup: float = 15 * MINUTES,
    config: Optional[PlatformConfig] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> ChurnPoint:
    network, extra = warm_start(
        checkpoint_store, bootstrap_spec(r, seed, warmup, config), _bootstrap
    )
    overlay = extra["overlay"]
    sim = network.sim
    searcher = overlay.edges[1]
    target_count = TARGET_COUNT

    # churn every rendezvous except the two the edges lease to
    protected = {0, (r // 2) % r}
    victims = [
        rdv for i, rdv in enumerate(overlay.rendezvous) if i not in protected
    ]
    by_name: Dict[str, object] = {rdv.name: rdv for rdv in victims}

    def kill(name: str) -> None:
        by_name[name].crash()

    def revive(name: str) -> None:
        peer = by_name[name]
        # a revived rendezvous restarts with an empty peerview and
        # re-bootstraps from its configured seeds
        peer.start()

    churn = ChurnProcess(
        sim,
        ExponentialChurn(mean_session=mean_session, mean_downtime=mean_downtime),
        targets=[rdv.name for rdv in victims],
        on_kill=kill,
        on_revive=revive,
    )
    churn.start()

    # no republication during the measurement: the point of the study
    # is whether the walk fall-back alone compensates for replica
    # placements going stale as rendezvous peers come and go (§5).
    # queries rotate over the published targets so every replica
    # placement is exercised.
    samples: List[DiscoverySample] = []
    per_query_timeout = 10.0
    #: gap between queries, so the measurement spans many churn events
    #: (back-to-back queries would all finish before the first crash)
    query_gap = 30.0

    def issue() -> None:
        searcher.cache.flush()
        index = len(samples) % target_count

        def done() -> None:
            if len(samples) < queries:
                sim.schedule(query_gap, issue)

        def on_result(advs, latency):
            samples.append(DiscoverySample(latency=latency, found=True))
            done()

        def on_timeout():
            samples.append(
                DiscoverySample(latency=per_query_timeout, found=False)
            )
            done()

        searcher.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", f"ChurnTarget-{index}",
            callback=on_result, on_timeout=on_timeout,
            timeout=per_query_timeout,
        )

    issue()
    sim.run(until=sim.now + queries * (per_query_timeout + query_gap + 1.0))
    churn.stop()
    return ChurnPoint(
        r=r,
        mean_session_minutes=mean_session / 60.0,
        success=success_rate(samples),
        mean_ms=mean_latency_ms(samples) if any(s.found for s in samples) else float("nan"),
        kills=churn.kill_count,
        revives=churn.revive_count,
        walk_steps=sum(rdv.discovery.walk_steps for rdv in overlay.rendezvous),
    )


def run(
    r: int,
    sessions: Sequence[float],
    queries: int = 60,
    seed: int = 1,
    verbose: bool = False,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> List[ChurnPoint]:
    out = []
    for session in sessions:
        if verbose:
            print(f"# churn mean session {session / 60:.0f}min ...", flush=True)
        out.append(
            run_point(
                r=r, mean_session=session, queries=queries, seed=seed,
                checkpoint_store=checkpoint_store,
            )
        )
    return out


def render(points: List[ChurnPoint]) -> str:
    rows = [
        [
            f"{p.mean_session_minutes:.0f}min",
            f"{p.success * 100:.0f}%",
            f"{p.mean_ms:.1f}",
            p.kills,
            p.walk_steps,
        ]
        for p in points
    ]
    return (
        "Churn study — discovery under rendezvous volatility\n\n"
        + render_table(
            ["mean session", "success", "mean ms", "kills", "walk steps"],
            rows,
        )
    )


def main(
    full: bool = False,
    seed: int = 1,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> List[ChurnPoint]:
    points = run(
        **SIZES["full" if full else "ci"], seed=seed, verbose=True,
        checkpoint_store=checkpoint_store,
    )
    print(render(points))
    return points
