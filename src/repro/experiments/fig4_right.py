"""Figure 4 (right): discovery time vs number of rendezvous peers.

"The goal of this benchmark is to evaluate the time t needed for an
edge to retrieve an advertisement.  [...]  One edge (called publisher)
connects to this network and publishes a specific advertisement that
is then searched by another edge (called searcher).  All measurements
are calculated based on 100 consecutive queries, each of them followed
by a flush of the local searcher cache [...].  A first set of
experiments involves a publisher, a searcher and an increasing number
of rendezvous peers (configuration A).  The second set of experiments
extends the first one by adding edge peers [50 noisers publishing f
fake advertisements each over 5 rendezvous] (configuration B)."

Expected shapes (paper): configuration A stays ≈12 ms up to r = 50
(consistent peerviews, 4-message O(1) lookup) and grows linearly from
50 to 200 (walk, O(r)); configuration B's overhead is largest at r = 5
(~30 ms, noisers on every rendezvous) and fades by r ≥ 150.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.advertisement.peeradv import PeerAdvertisement
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
from repro.snapshot import CheckpointStore, warm_start
from repro.workload import noiser_catalog, publish_catalog

#: Configuration B parameters (§4.2).
NOISER_COUNT = 50
FAKES_PER_NOISER = 100
NOISER_RDV_SPREAD = 5

#: keyword arguments of :func:`run` per size; the full sweep is the
#: paper's x axis 0..200, each point over three seeds
SIZES = {
    "ci": {
        "r_values": (4, 8, 16), "queries": 30, "seeds": 1,
        "warmup": 8 * MINUTES, "noisers": 10, "fakes_per_noiser": 50,
    },
    "full": {
        "r_values": (5, 25, 50, 100, 150, 200), "queries": 100, "seeds": 3,
        "warmup": 45 * MINUTES, "noisers": NOISER_COUNT,
        "fakes_per_noiser": FAKES_PER_NOISER,
    },
}


@dataclass
class Fig4RightPoint:
    """One (r, configuration) measurement."""

    r: int
    configuration: str  # "A" | "B"
    mean_ms: float
    success: float
    samples: List[DiscoverySample]
    total_walk_steps: int

    @property
    def std_ms(self) -> float:
        """Population standard deviation over successful queries."""
        ok = [s.latency * 1000.0 for s in self.samples if s.found]
        if len(ok) < 2:
            return 0.0
        mean = sum(ok) / len(ok)
        return (sum((v - mean) ** 2 for v in ok) / len(ok)) ** 0.5


def bootstrap_spec(
    r: int,
    with_noise: bool,
    seed: int = 1,
    warmup: float = 45 * MINUTES,
    noisers: int = NOISER_COUNT,
    fakes_per_noiser: int = FAKES_PER_NOISER,
) -> Dict[str, Any]:
    """Canonical description of everything the warm-started state
    depends on: the :class:`~repro.snapshot.CheckpointStore` key.
    Measurement-only knobs (``queries``) are deliberately absent —
    points that differ only there share one checkpoint."""
    noiser_count = noisers if with_noise else 0
    return {
        "experiment": "fig4_right",
        "r": r,
        "with_noise": with_noise,
        "seed": seed,
        "warmup": max(warmup, 4 * MINUTES),
        "noisers": noiser_count,
        "fakes_per_noiser": fakes_per_noiser if noiser_count else 0,
        "config": asdict(PlatformConfig()),
    }


def _bootstrap(key: Dict[str, Any]) -> Tuple[Network, Dict[str, Any]]:
    """Deploy and warm up one fig4-right overlay (the expensive,
    measurement-independent prefix of :func:`run_point`), built from
    its key."""
    r = key["r"]
    sim = Simulator(seed=key["seed"])
    network = Network(sim)

    noiser_count = key["noisers"]
    spread = min(NOISER_RDV_SPREAD, r)
    # edges: [publisher, searcher, noisers...]
    attachment = [0, (r // 2) % r] + [i % spread for i in range(noiser_count)]
    overlay = build_overlay(
        sim, network, PlatformConfig(**key["config"]),
        OverlayDescription(
            rendezvous_count=r,
            edge_count=2 + noiser_count,
            edge_attachment=attachment,
        ),
    )
    overlay.start()
    publisher = overlay.edges[0]
    noiser_edges = overlay.edges[2:]

    # let leases establish, then generate the noise workload: the
    # configuration-B fake-advertisement catalog, burst-published over
    # the noisers (byte-identical to the old inline loop — pinned by
    # tests/test_workload_equivalence.py)
    sim.run(until=2 * MINUTES)
    if noiser_edges:
        publish_catalog(
            noiser_edges,
            noiser_catalog(len(noiser_edges), key["fakes_per_noiser"]),
            expiration=12 * HOURS,
        )
    # the paper's searched resource: a peer advertisement, index
    # attribute Name, value Test (§3.3's worked example)
    publisher.discovery.publish(
        PeerAdvertisement(publisher.peer_id, publisher.group_id, "Test"),
        expiration=12 * HOURS,
    )

    # warm-up: peerviews into phase 3, SRDI pushed and replicated
    sim.run(until=key["warmup"])
    return network, {"overlay": overlay}


def run_point(
    r: int,
    with_noise: bool,
    queries: int = 100,
    seed: int = 1,
    warmup: float = 45 * MINUTES,
    noisers: int = NOISER_COUNT,
    fakes_per_noiser: int = FAKES_PER_NOISER,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> Fig4RightPoint:
    """Measure the mean discovery time for one overlay size.

    The publisher attaches to the first rendezvous and the searcher to
    a different one (when r > 1); noisers spread over
    ``NOISER_RDV_SPREAD`` rendezvous.  Queries start only after the
    warm-up, mirroring the paper's "publishing and searching jobs delay
    their execution time [until] local peerviews of rendezvous peers
    entered their phase 3".

    With a ``checkpoint_store``, the bootstrap (deploy + warm-up) is
    restored from the content-addressed cache when a matching
    checkpoint exists, and built-then-stored otherwise; either way the
    measurement phase runs on state byte-identical to a cold run
    (docs/CHECKPOINTS.md pins that contract).
    """
    key = bootstrap_spec(
        r, with_noise, seed=seed, warmup=warmup, noisers=noisers,
        fakes_per_noiser=fakes_per_noiser,
    )
    network, extra = warm_start(checkpoint_store, key, _bootstrap)
    overlay = extra["overlay"]
    sim = network.sim
    searcher = overlay.edges[1]

    samples = run_query_sequence(
        sim, searcher, "jxta:PA", "Name", "Test", count=queries
    )
    return Fig4RightPoint(
        r=r,
        configuration="B" if with_noise else "A",
        mean_ms=mean_latency_ms(samples),
        success=success_rate(samples),
        samples=samples,
        total_walk_steps=sum(
            rdv.discovery.walk_steps for rdv in overlay.rendezvous
        ),
    )


def run(
    r_values: Sequence[int],
    queries: int,
    seeds: int,
    warmup: float,
    noisers: int,
    fakes_per_noiser: int,
    seed: int = 1,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> List[Fig4RightPoint]:
    """Full sweep: configurations A and B at every r.

    Each point is averaged over ``seeds`` consecutive seeds from
    ``seed``: the walk distance of a single deployment depends on where
    the one searched tuple happens to land relative to the observers'
    views, so one seed per point is dominated by placement luck (the
    paper's testbed saw the same effect averaged away by drifting
    peerviews across its 100 queries).
    """
    out: List[Fig4RightPoint] = []
    for r in r_values:
        for with_noise in (False, True):
            label = "B" if with_noise else "A"
            print(f"# running r={r} configuration {label} ...", flush=True)
            per_seed = [
                run_point(
                    r, with_noise, queries=queries, seed=s, warmup=warmup,
                    noisers=noisers, fakes_per_noiser=fakes_per_noiser,
                    checkpoint_store=checkpoint_store,
                )
                for s in range(seed, seed + seeds)
            ]
            merged_samples = [s for p in per_seed for s in p.samples]
            out.append(
                Fig4RightPoint(
                    r=r,
                    configuration=label,
                    mean_ms=mean_latency_ms(merged_samples),
                    success=success_rate(merged_samples),
                    samples=merged_samples,
                    total_walk_steps=sum(p.total_walk_steps for p in per_seed),
                )
            )
    print(render(out))
    return out


def render(points: List[Fig4RightPoint]) -> str:
    r_values = sorted({p.r for p in points})
    rows = []
    for r in r_values:
        a = next((p for p in points if p.r == r and p.configuration == "A"), None)
        b = next((p for p in points if p.r == r and p.configuration == "B"), None)
        rows.append(
            [
                r,
                f"{a.mean_ms:.1f} ±{a.std_ms:.1f}" if a else "-",
                f"{b.mean_ms:.1f} ±{b.std_ms:.1f}" if b else "-",
                f"{(b.mean_ms - a.mean_ms):+.1f}" if a and b else "-",
                f"{a.success * 100:.0f}%" if a else "-",
                f"{b.success * 100:.0f}%" if b else "-",
            ]
        )
    table = render_table(
        [
            "r",
            "t(A) no noise [ms]",
            "t(B) 50 noisers/5000 fakes [ms]",
            "noise overhead [ms]",
            "A ok",
            "B ok",
        ],
        rows,
    )
    return (
        "Figure 4 (right) — average time to discover an advertisement\n\n"
        + table
    )
