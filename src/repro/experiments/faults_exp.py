"""Fault matrix: the 45-peer Property-(2) run under every fault class.

The paper's §4.1 finding — the peerview plateaus below the maximal
value ``r − 1`` even on a loss-free, churn-free testbed — is here
re-run under the volatility its conclusion names as future work.  Each
scenario of the matrix injects one fault class (message loss,
duplication+reorder, a WAN partition that heals, rendezvous churn,
clock skew) through the :mod:`repro.faults` engine while the runtime
invariant checker observes every probe round.  A deliberate
peerview-corruption canary validates the checker itself: a run whose
checker cannot flag a corrupted order book proves nothing about the
clean runs.

Reported per scenario: plateau ``l`` (mean over the last quarter),
final Property-(2) convergence ratio, invariant violations, and the
message-level fault counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.faults import (
    ChurnWindow,
    ClockSkew,
    CorruptPeerView,
    DuplicateWindow,
    HealSites,
    InvariantChecker,
    LossWindow,
    PartitionSites,
    ReorderWindow,
    Scenario,
    ScenarioEngine,
    peers_of,
)
from repro.metrics import (
    convergence_ratio_series,
    peerview_size_series,
    render_table,
)
from repro.network import Network
from repro.obs.tracer import PeerViewRecorder, TimelineTracer
from repro.sim import MINUTES, Simulator
from repro.sim.tracing import KernelTraceRecorder


def fault_matrix(duration: float, r: int) -> List[Scenario]:
    """The standard scenario matrix, scaled to a run of ``duration``
    seconds over ``r`` rendezvous peers (named ``rdv-0``..)."""
    t0 = duration * 0.25  # faults start once the peerview has formed
    window = duration * 0.35
    mid = [f"rdv-{i}" for i in range(r // 3, r // 3 + max(1, r // 5))]
    return [
        Scenario(name="fault-free", description="baseline, no faults"),
        Scenario(
            name="loss",
            description="20% uniform message loss window",
            actions=(LossWindow(at=t0, duration=window, rate=0.2),),
        ),
        Scenario(
            name="dup-reorder",
            description="duplication + reordering window",
            actions=(
                DuplicateWindow(at=t0, duration=window, probability=0.15),
                ReorderWindow(at=t0, duration=window, max_extra_delay=2.0),
            ),
        ),
        Scenario(
            name="partition",
            description="rennes/sophia WAN cut, later healed",
            actions=(
                PartitionSites(at=t0, site_a="rennes", site_b="sophia"),
                HealSites(at=t0 + window, site_a="rennes", site_b="sophia"),
            ),
        ),
        Scenario(
            name="churn",
            description="exponential churn over a third of the rdvs",
            actions=(
                ChurnWindow(
                    at=t0,
                    duration=window,
                    mean_session=duration * 0.1,
                    mean_downtime=duration * 0.02,
                    targets=tuple(mid),
                ),
            ),
        ),
        Scenario(
            name="clock-skew",
            description="PEERVIEW_INTERVAL doubled on a few peers",
            actions=tuple(
                ClockSkew(at=t0, peer=name, factor=2.0) for name in mid[:3]
            ),
        ),
    ]


def corruption_canary(at: float, peer: str = "rdv-0") -> Scenario:
    """Scenario that corrupts one peerview's total order — the checker
    MUST flag it (validates the invariant tooling itself)."""
    return Scenario(
        name="corruption-canary",
        description="deliberate order-book corruption (checker must flag)",
        actions=(CorruptPeerView(at=at, peer=peer, mode="swap"),),
    )


@dataclass
class FaultRunResult:
    """One scenario's outcome."""

    scenario: Scenario
    r: int
    duration: float
    plateau: float
    peak: float
    convergence: float
    violations: int
    violation_kinds: Dict[str, int]
    rounds_checked: int
    faulted_drops: int
    faulted_duplicates: int
    churn_kills: int
    trace_digest: str
    events_fired: int

    @property
    def reached_max(self) -> bool:
        return self.peak >= self.r - 1


def run_scenario(
    scenario: Scenario,
    r: int = 45,
    duration: float = 60 * MINUTES,
    seed: int = 1,
) -> FaultRunResult:
    """One seeded, fully deterministic fault run: deploy ``r`` chained
    rendezvous, arm the scenario engine and the invariant checker, run
    for ``duration`` simulated seconds."""
    sim = Simulator(seed=seed)
    recorder = KernelTraceRecorder(sim)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=r, topology="chain"),
    )
    log = TimelineTracer()
    observer = overlay.rendezvous[0]
    observer.view.add_listener(PeerViewRecorder(log, observer.name))

    engine = ScenarioEngine(sim, network, peers_of(overlay), scenario)
    checker = InvariantChecker(sim, overlay.rendezvous, engine, log=log)
    overlay.start()
    engine.start()
    sim.run(until=duration)
    checker.check_all()
    engine.stop()
    checker.detach()

    series = peerview_size_series(log, observer.name)
    convergence = convergence_ratio_series(log)
    kills = sum(c.kill_count for c in engine.context.churn_processes)
    return FaultRunResult(
        scenario=scenario,
        r=r,
        duration=duration,
        plateau=series.plateau(duration),
        peak=series.max(),
        convergence=convergence.final,
        violations=len(checker.violations),
        violation_kinds=checker.summary(),
        rounds_checked=checker.rounds_checked,
        faulted_drops=network.faulted_drops,
        faulted_duplicates=network.faulted_duplicates,
        churn_kills=kills,
        trace_digest=recorder.digest(),
        events_fired=sim.events_fired,
    )


#: keyword arguments of :func:`run` per size (r = 45, the paper's
#: smallest overlay that breaks Property (2))
SIZES = {
    "ci": {"r": 45, "duration": 60 * MINUTES},
    "full": {"r": 45, "duration": 120 * MINUTES},
}


def run(
    r: int,
    duration: float,
    seed: int = 1,
) -> List[FaultRunResult]:
    """Run the full matrix (plus the corruption canary) at one size and
    print its table."""
    matrix = fault_matrix(duration, r) + [corruption_canary(duration * 0.5)]
    out: List[FaultRunResult] = []
    for scenario in matrix:
        print(f"# running scenario {scenario.name!r} ...", flush=True)
        out.append(run_scenario(scenario, r=r, duration=duration, seed=seed))
    print(render(out))
    return out


def render(results: List[FaultRunResult]) -> str:
    rows = []
    for res in results:
        kinds = ",".join(sorted(res.violation_kinds)) or "-"
        rows.append(
            [
                res.scenario.name,
                f"{res.plateau:.0f}",
                f"{res.peak:.0f}",
                "yes" if res.reached_max else "no",
                f"{res.convergence:.2f}",
                res.violations,
                kinds,
                res.faulted_drops,
                res.churn_kills,
            ]
        )
    header = results[0] if results else None
    title = (
        f"Fault matrix — r = {header.r}, "
        f"{header.duration / 60:.0f} min, invariant-checked\n\n"
        if header
        else "Fault matrix\n\n"
    )
    return title + render_table(
        [
            "scenario", "plateau l", "peak l", "reached r-1",
            "conv ratio", "violations", "violated", "drops", "kills",
        ],
        rows,
    )


def smoke(seed: int = 1) -> List[FaultRunResult]:
    """CI-sized sweep: a small overlay, short horizon, whole matrix.

    Exits non-zero (via :func:`smoke_main`) if any non-canary scenario
    violates an invariant or the canary goes undetected.
    """
    return run(r=10, duration=12 * MINUTES, seed=seed)


def smoke_main() -> int:
    results = smoke()
    failures = []
    for res in results:
        if res.scenario.name == "corruption-canary":
            if res.violations == 0:
                failures.append("corruption canary went undetected")
        elif res.violations:
            failures.append(
                f"scenario {res.scenario.name!r} violated invariants: "
                f"{res.violation_kinds}"
            )
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    # make smoke-faults; the experiment itself is ``jxta-repro faults``
    import sys

    sys.exit(smoke_main())
