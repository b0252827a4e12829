"""``jxta-repro load``: workload-driven SLO runs on a deployed overlay.

Where the figure experiments measure one probe stream against a quiet
overlay, this experiment drives a *population* of open-loop clients
(:mod:`repro.workload`) against an r-rendezvous overlay and reports
the service-level view: p50/p95/p99 discovery latency, timeout and
failure rates per (workload, operation).

The paper's scalability story (§4.2) is about how discovery behaves as
the overlay and the advertisement population grow; the load experiment
extends that axis with *offered traffic* — arrival rate, popularity
skew — the way the follow-on measurement studies in PAPERS.md frame
it.  ``--full`` sizes the run to the acceptance floor: ≥100k open-loop
requests at r = 150.

Runs are deterministic per seed (byte-identical trace and SLO
snapshot); :func:`replay_load` re-drives a recorded trace as the
regression oracle (docs/WORKLOADS.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import MINUTES, Simulator
from repro.snapshot import CheckpointStore, warm_start
from repro.workload import (
    TraceOp,
    WorkloadEngine,
    WorkloadSpec,
    WorkloadTraceRecorder,
)
from repro.workload.catalog import Catalog, publish_catalog
from repro.workload.slo import render_slo

#: paper-scale configuration (acceptance floor: ≥100k requests, r=150)
FULL_R = 150
#: CI-sized configuration
CI_R = 12
#: drain margin after the measured window so in-flight queries resolve
DRAIN_SLACK = 1.0


def ci_spec(**overrides: Any) -> WorkloadSpec:
    """The CI-sized workload: ~1k requests against a small overlay."""
    base: Dict[str, Any] = dict(
        name="load",
        duration=60.0,
        warmup=5 * MINUTES,
        catalog={"popularity": "zipf", "size": 120, "skew": 1.0},
        arrivals={"kind": "poisson", "rate": 2.0},
        queriers=6,
        publishers=2,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def full_spec(**overrides: Any) -> WorkloadSpec:
    """The paper-scale workload: 42 open-loop clients × 5 req/s ×
    10 min ≈ 126k requests (the ≥100k acceptance floor)."""
    base: Dict[str, Any] = dict(
        name="load",
        duration=10 * MINUTES,
        warmup=15 * MINUTES,
        catalog={"popularity": "zipf", "size": 1000, "skew": 1.0},
        arrivals={"kind": "poisson", "rate": 5.0},
        queriers=40,
        publishers=2,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


#: keyword arguments of :func:`run_load` per size
SIZES = {
    "ci": {"spec": ci_spec(), "r": CI_R},
    "full": {"spec": full_spec(), "r": FULL_R},
}


@dataclass
class LoadRun:
    """Everything one workload run produced."""

    spec: WorkloadSpec
    r: int
    seed: int
    engine: WorkloadEngine
    recorder: Optional[WorkloadTraceRecorder]

    @property
    def slo(self):
        return self.engine.slo

    def snapshot(self) -> Dict[str, dict]:
        return self.slo.snapshot()

    def digest(self) -> Optional[str]:
        return self.recorder.digest() if self.recorder is not None else None


def _deploy(client_count: int, r: int, seed: int,
            config: Optional[PlatformConfig] = None):
    sim = Simulator(seed=seed)
    network = Network(sim)
    cfg = config if config is not None else PlatformConfig()
    overlay = build_overlay(
        sim, network, cfg,
        OverlayDescription(
            rendezvous_count=r,
            edge_count=client_count,
            edge_attachment=[i % r for i in range(client_count)],
        ),
    )
    overlay.start()
    return sim, overlay


def bootstrap_spec(
    spec: WorkloadSpec,
    r: int,
    seed: int = 1,
    config: Optional[PlatformConfig] = None,
) -> Dict[str, Any]:
    """Checkpoint key for a load-run bootstrap: overlay shape, seed,
    warm-up timeline and the *published* face of the catalog (names +
    payload).  Traffic knobs — arrival rate, popularity skew,
    duration, timeouts — only shape the measurement phase, so the whole
    rate × skew grid at one (r, seed) shares a single warmed overlay
    (popularity weights bias sampling, never the seed burst)."""
    catalog = Catalog.from_spec(spec.catalog)
    return {
        "experiment": "load",
        "r": r,
        "seed": seed,
        "warmup": spec.warmup,
        "seed_time": spec.seed_time,
        "publish_expiration": spec.publish_expiration,
        "queriers": spec.queriers,
        "publishers": spec.publishers,
        "catalog": {
            "size": len(catalog),
            "prefix": spec.catalog.get("prefix", "item"),
            "payload_bytes": catalog.payload_bytes,
        },
        "config": asdict(config or PlatformConfig()),
    }


def _bootstrap(key: Dict[str, Any]) -> Tuple[Network, Dict[str, Any]]:
    """Deploy the overlay, publish the catalog at ``seed_time`` and
    warm up to ``warmup`` — the traffic-independent prefix of a load
    run, built from its key.  The seed burst happens at the same
    simulated instant, over the same edges, in the same item order as
    the engine's own ``workload.seed`` event would, and every draw it
    triggers comes from named per-link/per-purpose RNG streams, so
    downstream state is byte-equivalent (docs/CHECKPOINTS.md)."""
    clients = key["queriers"] + key["publishers"]
    sim, overlay = _deploy(
        clients, key["r"], key["seed"], PlatformConfig(**key["config"]),
    )
    # publish_catalog's partition: publisher edges, or every client
    # edge when the population has no publishers (mirrors
    # WorkloadEngine._seed_edges)
    seed_edges = overlay.edges[: key["publishers"] or clients]
    sim.run(until=key["seed_time"])
    publish_catalog(
        seed_edges, Catalog.from_spec(key["catalog"]),
        key["publish_expiration"],
    )
    sim.run(until=key["warmup"])
    return overlay.group.network, {"overlay": overlay}


def run_load(
    spec: WorkloadSpec,
    r: int,
    seed: int = 1,
    record: bool = False,
    config: Optional[PlatformConfig] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> LoadRun:
    """Deploy an overlay, run the workload, drain in-flight requests.

    The deploy + seed + warm-up prefix goes through
    :func:`~repro.snapshot.warm_start` — restored from
    ``checkpoint_store`` when given (built on first use) — and the
    engine warm-starts on top: trace bytes and SLO snapshot are the
    same on every path."""
    network, extra = warm_start(
        checkpoint_store, bootstrap_spec(spec, r, seed, config), _bootstrap
    )
    sim = network.sim
    recorder = WorkloadTraceRecorder() if record else None
    engine = WorkloadEngine(
        spec, sim, extra["overlay"].edges, recorder=recorder
    )
    engine.start_warm()
    sim.run(until=spec.horizon + spec.timeout + DRAIN_SLACK)
    return LoadRun(spec=spec, r=r, seed=seed, engine=engine, recorder=recorder)


def replay_load(
    spec: WorkloadSpec,
    r: int,
    ops: Sequence[TraceOp],
    seed: int = 1,
    config: Optional[PlatformConfig] = None,
) -> LoadRun:
    """Re-drive a recorded trace on a fresh deployment of the same
    (spec, r, seed) — the regression oracle: the replayed run's trace
    bytes and SLO snapshot match the original exactly
    (docs/WORKLOADS.md)."""
    sim, overlay = _deploy(spec.client_count, r, seed, config)
    recorder = WorkloadTraceRecorder()
    engine = WorkloadEngine(spec, sim, overlay.edges, recorder=recorder)
    engine.start_replay(ops)
    sim.run(until=spec.horizon + spec.timeout + DRAIN_SLACK)
    return LoadRun(spec=spec, r=r, seed=seed, engine=engine, recorder=recorder)


@dataclass
class LoadResult:
    """One (workload, operation) row of a load run (flat, so the
    ``--seeds`` cross-seed aggregator picks every metric up)."""

    label: str
    r: int
    requests: int
    ok: int
    timeout: int
    failure: int
    retries: int
    qps: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    timeout_rate: float
    failure_rate: float


def results_of(run: LoadRun) -> List[LoadResult]:
    """The run's SLO snapshot as flat result rows (latency columns are
    0 for latency-less operations like publishes)."""
    rows: List[LoadResult] = []
    for key, entry in sorted(run.snapshot().items()):
        rows.append(
            LoadResult(
                label=key,
                r=run.r,
                requests=entry["requests"],
                ok=entry["ok"],
                timeout=entry["timeout"],
                failure=entry["failure"],
                retries=entry["retries"],
                qps=entry["requests"] / run.spec.duration,
                mean_ms=entry.get("mean_ms", 0.0),
                p50_ms=entry.get("p50_ms", 0.0),
                p95_ms=entry.get("p95_ms", 0.0),
                p99_ms=entry.get("p99_ms", 0.0),
                timeout_rate=entry["timeout_rate"],
                failure_rate=entry["failure_rate"],
            )
        )
    return rows


def render(run: LoadRun) -> str:
    spec = run.spec
    head = (
        f"Load — r={run.r}, {spec.queriers} queriers + "
        f"{spec.publishers} publishers, poisson arrivals, "
        f"catalog {spec.catalog.get('popularity')}"
        f"(size={spec.catalog.get('size')}, "
        f"skew={spec.catalog.get('skew', 0)}), "
        f"{spec.duration:.0f}s measured window\n"
    )
    body = render_slo(run.snapshot())
    total = run.slo.total_requests()
    tail = f"\ntotal requests: {total}"
    if run.recorder is not None:
        tail += f"\ntrace: {len(run.recorder)} ops, sha256 {run.digest()}"
    return head + "\n" + body + tail


def main(
    full: bool = False,
    seed: int = 1,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> List[LoadResult]:
    size = SIZES["full" if full else "ci"]
    print(
        f"# load: r={size['r']}, ~{size['spec'].expected_requests():.0f} "
        f"open-loop requests expected, seed={seed} ...",
        flush=True,
    )
    run = run_load(**size, seed=seed, checkpoint_store=checkpoint_store)
    print(render(run))
    return results_of(run)
