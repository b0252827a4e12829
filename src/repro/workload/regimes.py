"""The two LC-DHT query-path regimes at CI size.

Each regime is defined once here and built by every tool that measures
it — ``benchmarks/test_bench_flat.py`` and ``test_bench_walk.py`` time
it, ``scripts/frames_per_op.py`` counts its frames — so a retuned
regime moves the timing and the frame budget together.

* :data:`FLAT` — ``discovery-flat``'s shape: r = 50 with tuned expiry,
  the catalog indexed at minute 20 on complete views, so every query is
  Figure 2's four messages (edge → rendezvous → replica → publisher,
  the response straight back to the searcher) and none walks;
* :data:`WALK` — ``discovery-walk``'s shape at r = 60: the catalog is
  indexed at minute 2 on immature views and queried from minute 20 on
  complete ones, so the computed replica misses and every query walks.

Both run Poisson queriers at 5 queries/s each over a Zipf catalog on a
chain-bootstrapped overlay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config import PlatformConfig
from repro.deploy import DeployedOverlay, OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator
from repro.workload.spec import WorkloadEngine, WorkloadSpec

#: peerview entries outlive the run, so views stay complete once formed
TUNED = PlatformConfig().with_overrides(pve_expiration=6 * HOURS)


@dataclass(frozen=True)
class QueryRegime:
    """A client workload on an overlay of ``rdv_count`` rendezvous."""

    name: str
    rdv_count: int
    catalog_size: int
    queriers: int
    publishers: int
    #: when the publishers index the catalog
    seed_time: float
    #: when the queriers start; every view is complete by then
    warmup: float

    def spec(self, duration: float) -> WorkloadSpec:
        return WorkloadSpec(
            name=self.name,
            warmup=self.warmup,
            duration=duration,
            catalog={
                "popularity": "zipf", "size": self.catalog_size, "skew": 1.0,
            },
            arrivals={"kind": "poisson", "rate": 5.0},
            queriers=self.queriers,
            publishers=self.publishers,
            seed_time=self.seed_time,
        )

    def build(
        self, duration: float,
    ) -> Tuple[Simulator, DeployedOverlay, WorkloadEngine]:
        """Build the overlay and its clients and run the warm-up: the
        returned simulator stands at ``warmup`` with complete views,
        and the queriers run for ``duration`` simulated seconds."""
        spec = self.spec(duration)
        sim = Simulator(seed=1)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, TUNED,
            OverlayDescription(
                rendezvous_count=self.rdv_count, topology="chain",
                edge_count=spec.client_count,
            ),
        )
        overlay.start()
        engine = WorkloadEngine(spec, sim, overlay.edges)
        engine.start()
        sim.run(until=spec.warmup)
        assert all(
            r.view.size == self.rdv_count - 1 for r in overlay.rendezvous
        )
        return sim, overlay, engine


def walk_steps(overlay: DeployedOverlay) -> int:
    """Walk steps taken so far by every rendezvous of ``overlay``."""
    return sum(r.discovery.walk_steps for r in overlay.rendezvous)


FLAT = QueryRegime(
    "flat", rdv_count=50, catalog_size=1000, queriers=40, publishers=2,
    seed_time=20 * MINUTES, warmup=25 * MINUTES,
)
WALK = QueryRegime(
    "walk", rdv_count=60, catalog_size=300, queriers=10, publishers=1,
    seed_time=2 * MINUTES, warmup=20 * MINUTES,
)
