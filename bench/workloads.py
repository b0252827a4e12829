"""The five workloads: what each builds, and how a window is measured.

Every overlay workload is *open loop in simulated time*: arrivals fire
at their scheduled simulated instant by construction, so the generator
never lags (``workload.generator_lag_sim_ms`` is 0 and says so).  The
harness itself is closed: one unit after another, single-threaded.

A measured window is a fixed list of **units** (equal slices of
simulated time, or whole fuzz batches), so the simulated work — and
with it every sim metric and the digest — depends only on ``--seed``
and ``--seconds``, never on how fast the host is.

Host seconds are *reference-box seconds*.  The sandbox this was sized
on changes speed by 10-20 % over seconds to minutes (the same 520 k
events took 7.0 to 8.9 s in ten back-to-back runs) in a way the guest
cannot see - no steal, no load - and that min, median or CPU time do
not remove.  So a fixed pure-Python loop is timed before and after
every unit, and the unit's wall time is divided by how much slower (or
faster) than ``CALIB_REF_S`` the loop ran around it.  That halves the
run-to-run range; the raw sum stays in the detail line as
``wall_raw_s``.  The loop lives here, not in ``src/``, so no change to
the program can move it.

Seeds.  ``--seed`` generates the inputs: the client request streams
(arrival times and item choices; the workload is named after the seed,
which by the RNG-stream discipline of ``repro.workload.clients`` gives
every seed its own streams) and the kernel seed of ``peerview-580``,
whose only inputs are start-up jitter and latency draws.  The overlay
*under* the clients is pinned to kernel seed 1 and the fuzz batch to
one master seed, because their structure decides the cost: across
kernel seeds 1-5 the r=150 walk fires 565k-787k events for the same
6 000 requests, and across fuzz master seeds 1-10 a 32-genome batch
takes 4.8-44.8 s.  That is a property of the system worth knowing, but
it is not run-to-run noise, and a benchmark that cannot tell the two
apart cannot gate anything.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.spec import derive_seed
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator
from repro.workload import WorkloadEngine, WorkloadSpec
from repro.workload.slo import SloTracker

from bench.catalog import RUN_SECONDS, SIM_END_TO_END

#: kernel seed of the overlay under the client workloads (see module doc)
OVERLAY_SEED = 1
FUZZ_MASTER_SEED = derive_seed(1, "bench/fuzz-batch")
#: drain margin after the client horizon so in-flight queries resolve
DRAIN_SLACK = 1.0
#: set-up is repeated (fresh build each time) until this many samples
#: or this much host time, whichever comes first; the median is reported
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0
#: the paper's plateau at r = 580 (fig3-left) and the band around it
PAPER_PLATEAU = 300.0
PAPER_BAND_PCT = 15.0
#: the plateau is only reached from here on; shorter windows report the
#: error without gating on it
PAPER_CHECK_FROM = 40 * MINUTES


#: the calibration loop, and its wall time on the reference box
CALIB_ITERATIONS = 100_000
CALIB_REF_S = 0.0055


def calibrate() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


class SpeedClock:
    """Times chunks of work, with a calibration reading between any
    two of them."""

    def __init__(self) -> None:
        self.readings: List[float] = [calibrate()]

    def measure(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(fn(), raw seconds, reference-box seconds)``."""
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        self.readings.append(calibrate())
        speed = (self.readings[-2] + self.readings[-1]) / 2 / CALIB_REF_S
        return result, raw, raw / speed

    def drift(self) -> List[float]:
        """Median reading of the first and of the second half of the
        run: the drift sentinel ``python -m bench run`` checks."""
        half = len(self.readings) // 2
        return [statistics.median(self.readings[:half]),
                statistics.median(self.readings[half:])]


@dataclass
class Unit:
    #: reference-box seconds, and the wall seconds they were read as
    wall: float
    raw: float
    #: simulated events fired (overlay workloads) or 1 genome (fuzz)
    work: int
    traced: bool
    #: position in the window; fuzz-batch measures every position once
    #: per batch
    key: int


@dataclass
class Outcome:
    """Everything one run of one workload produced."""

    setup_s: List[float]
    units: List[Unit]
    #: operations in the window (simulated seconds, requests, genomes)
    ops: int
    attempted: int
    failed: int
    sim: Dict[str, float]
    counters: Dict[str, float]
    digest: str
    violations: List[str] = field(default_factory=list)
    alloc_blocks: int = 0
    latency_samples: int = 0
    calib_s: List[float] = field(default_factory=list)
    #: how many times the window was measured with spans on (fuzz-batch
    #: repeats it; the overlay workloads trace every other unit of one)
    traced_passes: int = 1


def window_wall(units: List[Unit]) -> float:
    """Reference-box seconds for one pass through the window: the sum
    over its positions of the median unit measured there."""
    by_key: Dict[int, List[float]] = {}
    for unit in units:
        by_key.setdefault(unit.key, []).append(unit.wall)
    return sum(statistics.median(walls) for walls in by_key.values())


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


class SamplingSlo(SloTracker):
    """The engine's SLO tracker, plus the raw latency of every
    successful request: tail percentiles come from this list, not from
    the histogram's bucket edges."""

    def __init__(self) -> None:
        super().__init__()
        self.latencies: List[float] = []

    def record_success(self, workload, operation, latency=None) -> None:
        super().record_success(workload, operation, latency)
        if latency is not None:
            self.latencies.append(latency)


# ---------------------------------------------------------------------------
# overlay workloads
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """An overlay at the start of its measured window."""

    sim: Simulator
    network: Network
    overlay: Any
    #: simulated instants at which the units end
    edges: List[float]
    engine: Optional[WorkloadEngine] = None


@dataclass(frozen=True)
class OverlaySizes:
    r: int
    warmup: float
    #: simulated seconds per unit, and units at --seconds RUN_SECONDS
    unit: float
    units: int
    config: PlatformConfig = PlatformConfig()
    #: client population (None: bare rendezvous overlay)
    clients: Optional[Dict[str, Any]] = None


_CLIENTS_5 = dict(
    catalog={"popularity": "zipf", "size": 1000, "skew": 1.0},
    arrivals={"kind": "poisson", "rate": 5.0}, queriers=40,
)
_QUICK_CLIENTS = dict(
    catalog={"popularity": "zipf", "size": 120, "skew": 1.0},
    arrivals={"kind": "poisson", "rate": 2.0}, queriers=6,
)
_TUNED = PlatformConfig().with_overrides(pve_expiration=6 * HOURS)

OVERLAY_SIZES: Dict[str, OverlaySizes] = {
    # §4.1 / fig3-left: default config, chain bootstrap, no edges.
    # 15->45 simulated minutes covers the rise past PVE_EXPIRATION and
    # the decay onto the ~300 plateau.
    "peerview-580": OverlaySizes(
        r=580, warmup=15 * MINUTES, unit=60.0, units=30),
    # the paper's tuned expiry: l = 49 everywhere after minute ~7.  The
    # catalog is indexed at minute 20, on complete views, so every
    # replica sits where a query computes it: the 4-message path.
    "discovery-flat": OverlaySizes(
        r=50, warmup=25 * MINUTES, unit=5.0, units=60, config=_TUNED,
        clients=dict(_CLIENTS_5, publishers=2, seed_time=20 * MINUTES)),
    # same queriers, r = 150: the catalog is indexed at minute 2 on
    # 20-entry views and queried at minute 45 on complete ones, so the
    # computed replica misses and the query walks.  Complete views make
    # the walk exhaustive: no request times out.  One publisher, which
    # re-publishes only what it already indexed: a second one would
    # re-index the hottest items on the complete views within seconds
    # and turn the walk into discovery-flat halfway through the window,
    # at an instant that depends on the seed.
    "discovery-walk": OverlaySizes(
        r=150, warmup=45 * MINUTES, unit=1.0, units=30, config=_TUNED,
        clients=dict(_CLIENTS_5, publishers=1)),
    # default config; the window ends before the first entry can expire
    # (minute 20), so views stay consistent and no request times out
    "publish-heavy": OverlaySizes(
        r=50, warmup=15 * MINUTES, unit=1.0, units=45,
        clients=dict(
            catalog={"popularity": "uniform", "size": 20000},
            arrivals={"kind": "poisson", "rate": 50.0},
            queriers=4, publishers=40,
        )),
}

QUICK_SIZES: Dict[str, OverlaySizes] = {
    "peerview-580": OverlaySizes(r=40, warmup=4 * MINUTES, unit=60.0, units=4),
    "discovery-flat": OverlaySizes(
        r=12, warmup=8 * MINUTES, unit=5.0, units=4, config=_TUNED,
        clients=dict(_QUICK_CLIENTS, publishers=2, seed_time=6 * MINUTES)),
    "discovery-walk": OverlaySizes(
        r=30, warmup=12 * MINUTES, unit=2.0, units=4, config=_TUNED,
        clients=dict(_QUICK_CLIENTS, publishers=1)),
    "publish-heavy": OverlaySizes(
        r=12, warmup=6 * MINUTES, unit=2.0, units=4,
        clients=dict(
            catalog={"popularity": "uniform", "size": 600},
            arrivals={"kind": "poisson", "rate": 10.0},
            queriers=2, publishers=6,
        )),
}


def _unit_count(units: int, seconds: float) -> int:
    return max(2, round(units * seconds / RUN_SECONDS))


def build_scenario(sizes: OverlaySizes, seed: int, seconds: float) -> Scenario:
    """Deploy, start, and run to the start of the window."""
    units = _unit_count(sizes.units, seconds)
    spec = None
    if sizes.clients is not None:
        spec = WorkloadSpec(
            name=f"s{seed}", warmup=sizes.warmup,
            duration=sizes.unit * units, **sizes.clients,
        )
    sim = Simulator(seed=OVERLAY_SEED if spec is not None else seed)
    network = Network(sim)
    count = spec.client_count if spec is not None else 0
    overlay = build_overlay(
        sim, network, sizes.config,
        OverlayDescription(
            rendezvous_count=sizes.r, topology="chain", edge_count=count,
        ),
    )
    overlay.start()
    engine = None
    if spec is not None:
        engine = WorkloadEngine(spec, sim, overlay.edges, slo=SamplingSlo())
        engine.start()
    sim.run(until=sizes.warmup)
    edges = [sizes.warmup + sizes.unit * (i + 1) for i in range(units)]
    if spec is not None:
        edges.append(spec.horizon + spec.timeout + DRAIN_SLACK)
    return Scenario(sim, network, overlay, edges, engine)


def _state(sc: Scenario) -> Dict[str, float]:
    """Public counters of every layer, read at a unit boundary."""
    stats = sc.network.stats
    rdvs = sc.overlay.rendezvous
    edges = sc.overlay.edges
    peers = rdvs + edges
    walk = sum(r.discovery.walk_steps for r in rdvs)
    return {
        "sim.events_fired": sc.sim.events_fired,
        "network.sends": stats.messages_sent,
        "network.bytes_sent": stats.bytes_sent,
        "network.drops": stats.messages_dropped,
        "network.delivered": stats.messages_delivered,
        "network.inter_site": stats.inter_site_messages,
        "rendezvous.probes_sent": sum(
            r.peerview_protocol.probes_sent for r in rdvs),
        "rendezvous.view_adds": sum(r.view.adds for r in rdvs),
        "rendezvous.view_removes": sum(r.view.removes for r in rdvs),
        "rendezvous.lease_renewals": sum(
            r.lease_server.renewals for r in rdvs),
        "resolver.queries_sent": sum(p.resolver.queries_sent for p in peers),
        "resolver.queries_forwarded": walk + sum(
            r.discovery.queries_forwarded_to_publisher
            + r.discovery.queries_forwarded_to_replica for r in rdvs),
        "resolver.responses_sent": sum(
            p.resolver.responses_sent for p in peers),
        "resolver.srdi_sent": sum(p.resolver.srdi_sent for p in peers),
        "discovery.walk_steps": walk,
        "discovery.srdi_tuples_indexed": sum(
            r.discovery.srdi.inserts for r in rdvs),
        "edge.queries_issued": sum(e.resolver.queries_sent for e in edges),
        "edge.publishes": sum(e.discovery.publishes for e in edges),
    }


def run_overlay(
    sizes: OverlaySizes, seed: int, seconds: float, tracer=None,
    check_paper: bool = False,
) -> Outcome:
    clock = SpeedClock()
    setups: List[float] = []
    spent = 0.0
    sc = None
    while True:
        sc = None  # let go of the previous build before timing the next
        gc.collect()
        sc, raw, wall = clock.measure(
            lambda: build_scenario(sizes, seed, seconds))
        setups.append(wall)
        spent += raw
        if (
            tracer is not None or len(setups) >= SETUP_REPEATS
            or spent >= SETUP_BUDGET_S
        ):
            break

    sim = sc.sim
    before = _state(sc)
    t_start = sim.now
    units: List[Unit] = []
    blocks = sys.getallocatedblocks()
    for i, until in enumerate(sc.edges):
        # alternate traced and plain units so that both see the same
        # phases of the window; their cost ratio is the trace overhead
        traced = tracer is not None and i % 2 == 0
        fired = sim.events_fired
        if traced:
            tracer.on = True
        _, raw, wall = clock.measure(lambda: sim.run(until=until))
        if traced:
            tracer.on = False
        units.append(Unit(wall, raw, sim.events_fired - fired, traced, i))
    blocks = sys.getallocatedblocks() - blocks
    after = _state(sc)
    delta = {k: after[k] - before[k] for k in after}
    window = sim.now - t_start

    sizes_now = [r.view.size for r in sc.overlay.rendezvous]
    l_mean = sum(sizes_now) / len(sizes_now)
    sim_metrics = {m.name: 0.0 for m in SIM_END_TO_END}
    sim_metrics["network.sim_kbit_s_per_peer"] = (
        delta["network.bytes_sent"] * 8e-3 / window / sizes.r)
    sim_metrics["rendezvous.peerview_l_mean"] = l_mean
    violations: List[str] = []
    in_flight = (
        after["network.sends"] - after["network.delivered"]
        - after["network.drops"]
    )
    if not 0 <= in_flight <= sim.pending_events:
        violations.append(
            f"messages_sent != delivered + dropped + in flight "
            f"(residue {in_flight}, {sim.pending_events} events pending)"
        )

    ops, failed, queries, requests, samples = round(window), 0, 0, 0, 0
    slo_snapshot = None
    if sc.engine is not None:
        slo = sc.engine.slo
        spec = sc.engine.spec
        slo_snapshot = slo.snapshot()
        query = slo_snapshot.get(f"{spec.name}.query", {})
        publish = slo_snapshot.get(f"{spec.name}.publish", {})
        queries = query.get("requests", 0)
        requests = queries + publish.get("requests", 0)
        failed = query.get("timeout", 0) + query.get("failure", 0)
        ops = requests
        # open-loop conservation: every request an edge issued in the
        # window is accounted for exactly once after the drain
        if delta["edge.queries_issued"] != queries:
            violations.append(
                f"{delta['edge.queries_issued']} queries issued, "
                f"{queries} accounted for (ok + timeout + failure)"
            )
        if delta["edge.publishes"] != publish.get("requests", 0):
            violations.append(
                f"{delta['edge.publishes']} publishes issued, "
                f"{publish.get('requests', 0)} accounted for"
            )
        latencies = sorted(slo.latencies)
        samples = len(latencies)
        if latencies:
            sim_metrics["workload.sim_latency_mean_ms"] = (
                1e3 * sum(latencies) / samples)
            sim_metrics["workload.sim_latency_p99_ms"] = (
                1e3 * latencies[math.ceil(0.99 * samples) - 1])
        sim_metrics["workload.failed_share"] = failed / requests
    if check_paper:
        error = 100.0 * abs(l_mean - PAPER_PLATEAU) / PAPER_PLATEAU
        sim_metrics["rendezvous.paper_error_pct"] = error
        if sim.now >= PAPER_CHECK_FROM and error > PAPER_BAND_PCT:
            violations.append(
                f"mean peerview size {l_mean:.1f} is {error:.1f}% off the "
                f"paper's plateau of {PAPER_PLATEAU:.0f}"
            )

    counters = {
        k: delta[k] for k in delta
        if not k.startswith("edge.") and k not in (
            "network.delivered", "network.inter_site")
    }
    counters["network.inter_site_share"] = (
        delta["network.inter_site"] / delta["network.sends"]
        if delta["network.sends"] else 0.0
    )
    counters["discovery.queries"] = queries
    counters["discovery.walk_steps_per_query"] = (
        delta["discovery.walk_steps"] / queries if queries else 0.0
    )
    counters["workload.requests_issued"] = requests
    counters["workload.generator_lag_sim_ms"] = 0.0

    digest = _digest({
        "events_fired": sim.events_fired,
        "stats": sc.network.stats.snapshot(),
        "slo": slo_snapshot,
        "views": sizes_now,
    })
    return Outcome(
        setup_s=setups, units=units, ops=ops, attempted=ops, failed=failed,
        sim=sim_metrics, counters=counters, digest=digest,
        violations=violations, alloc_blocks=blocks, latency_samples=samples,
        calib_s=clock.drift(),
    )


# ---------------------------------------------------------------------------
# fuzz-batch
# ---------------------------------------------------------------------------

#: genomes per batch at --seconds RUN_SECONDS, after the engine's fixed
#: seed cases; a run measures FUZZ_BATCHES identical batches
FUZZ_GENOMES = 8
FUZZ_BATCHES = 3


def run_fuzz(seconds: float, tracer=None, quick: bool = False) -> Outcome:
    """``FuzzEngine(seed).run(...)`` under the full oracle battery.

    Set-up is the engine's fixed prologue (the ``SEED_CASES``, which
    fill the coverage map and the mutation pool); the window is the
    genomes mutated from them, one unit each: ``run(prologue + 1)``
    skips the prologue as already seen and executes the next genome.
    Every batch starts from a fresh engine with the same master seed,
    so position k holds the same genome in every batch, and all
    batches must report the same digest."""
    from repro.fuzz.engine import FuzzEngine
    from repro.fuzz.genome import SEED_CASES

    genomes = 2 if quick else max(1, round(FUZZ_GENOMES * seconds / RUN_SECONDS))
    batches = 2 if quick else FUZZ_BATCHES
    prologue = len(SEED_CASES)
    clock = SpeedClock()
    setups: List[float] = []
    units: List[Unit] = []
    digests: List[str] = []
    failures = skips = 0
    report = None
    for batch in range(batches):
        traced = tracer is not None and batch % 2 == 0
        gc.collect()
        engine = FuzzEngine(seed=FUZZ_MASTER_SEED)
        _, _, wall = clock.measure(lambda: engine.run(prologue))
        setups.append(wall)
        skips = -engine.report.skipped
        for key in range(genomes):
            if traced:
                tracer.on = True
            report, raw, wall = clock.measure(lambda: engine.run(prologue + 1))
            if traced:
                tracer.on = False
            units.append(Unit(wall, raw, 1, traced, key))
        skips += report.skipped
        failures += len(report.failures)
        digests.append(_digest({
            "report": report.digest(), "executed": report.executed,
            "skipped": report.skipped,
        }))
    violations = []
    if len(set(digests)) != 1:
        violations.append(f"fuzz batches disagree: {sorted(set(digests))}")
    if failures:
        violations.append(
            f"{failures} fuzz failure(s): "
            + ", ".join(e.signature for e in report.failures)
        )
    return Outcome(
        setup_s=setups, units=units, ops=genomes,
        attempted=genomes * batches, failed=failures,
        sim=dict(
            {m.name: 0.0 for m in SIM_END_TO_END},
            **{"workload.failed_share": failures / (genomes * batches)},
        ),
        counters={
            # per batch; a genome mutated into one already seen is
            # skipped whole, which is rare enough to count every genome
            # as checked
            "fuzz.oracle_checks": genomes * len(engine.oracles) - skips,
            "fuzz.oracle_skips": skips,
            "fuzz.coverage_keys": len(report.coverage),
        },
        digest=digests[0], violations=violations, calib_s=clock.drift(),
        traced_passes=sum(1 for b in range(batches) if b % 2 == 0),
    )


def run_workload(
    name: str, seed: int, seconds: float, tracer=None, quick: bool = False,
) -> Outcome:
    if name == "fuzz-batch":
        return run_fuzz(seconds, tracer, quick)
    sizes = (QUICK_SIZES if quick else OVERLAY_SIZES)[name]
    return run_overlay(
        sizes, seed, seconds, tracer,
        check_paper=name == "peerview-580" and not quick,
    )
