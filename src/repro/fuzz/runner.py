"""Execute one :class:`FuzzCase` and apply the oracle battery.

Every execution is the same shape as a :mod:`repro.experiments
.faults_exp` run — deploy, arm the scenario engine and the invariant
checker, run — with two additions:

* a **fault-free bootstrap prefix** (deploy + run to
  ``BOOTSTRAP_TIME``), built afresh by every execution: restoring it
  from a checkpoint costs what building it does (docs/FUZZING.md).
* instruments where their output is read (``run_case``'s ``reads``;
  docs/FUZZING.md has the table): in the base execution an
  :class:`~repro.obs.runtime.ObsSession` whose merged metrics snapshot
  provides the coverage signal — the sorted ``(protocol, event)`` key
  set, plus any invariant-violation kinds; a workload trace and SLO
  snapshot in the two executions the replay oracle compares.

Oracles (:func:`check_case`):

``invariants``
    Any :class:`~repro.faults.InvariantChecker` violation.  The fault
    matrix pins that the standard fault classes produce *zero*
    violations, so a violation here is a real bug (or a planted one: a
    mutant applied to a copy of the source, ``scripts/mutants.py``).
``snapshot``
    Pausing at mid-run, snapshotting, continuing — and separately
    restoring the snapshot and continuing — must both reproduce the
    uninterrupted kernel trace.  Gated to cases without workload
    (generator-driven arrivals do not pickle, docs/CHECKPOINTS.md) or
    churn: a churn graph pickles, but the probe costs about twice its
    base execution.
``replay``
    For workload cases: re-driving the recorded operation trace on a
    fresh deployment must reproduce the workload trace and the SLO
    snapshot.

Every oracle compares the traces themselves (list equality, so no hash
collision can hide a divergence); a hex digest is formatted only for a
failure's ``detail`` line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import canonical_json
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.faults import InvariantChecker, ScenarioEngine, peers_of
from repro.fuzz.genome import (
    BOOTSTRAP_TIME,
    FuzzCase,
    decode_scenario,
    has_churn,
)
from repro.network import Network
from repro.obs.runtime import ObsSession, activate, deactivate
from repro.sim import Simulator
from repro.sim.tracing import KernelTraceRecorder, trace_digest
from repro.snapshot import SnapshotError, restore_network, snapshot_network
from repro.workload import WorkloadEngine, WorkloadSpec, WorkloadTraceRecorder
from repro.workload.trace import ops_digest

#: the oracle battery, in evaluation order
ORACLES: Tuple[str, ...] = ("invariants", "snapshot", "replay")

#: what ``run_case(reads=...)`` collects beyond the invariant verdict:
#: the kernel trace (without it no recorder hooks the kernel); the
#: coverage key set (a metrics hub rides the run); the workload trace
#: and the SLO snapshot
DIGEST, COVERAGE, WORKLOAD = "digest", "coverage", "workload"
EVERYTHING: Tuple[str, ...] = (DIGEST, COVERAGE, WORKLOAD)

#: per-request timeout of fuzz workloads (short: cases are small)
WORKLOAD_TIMEOUT = 5.0
#: drain margin after the horizon so in-flight queries resolve
DRAIN_SLACK = 1.0
#: catalog burst instant (inside every warmup: duration >= 120 -> 60)
SEED_TIME = 45.0


def platform_config_of(case: FuzzCase) -> PlatformConfig:
    return PlatformConfig().with_overrides(
        pve_expiration=float(case.pve_expiration),
        peerview_interval=float(case.peerview_interval),
    )


def workload_spec_of(case: FuzzCase) -> Optional[WorkloadSpec]:
    if case.workload is None:
        return None
    w = case.workload
    return WorkloadSpec(
        name="fuzz",
        duration=case.duration * 0.5,
        warmup=case.duration * 0.5,
        catalog={
            "popularity": "zipf",
            "size": int(w["catalog_size"]),
            "skew": 1.0,
        },
        arrivals={"kind": "poisson", "rate": float(w["rate"])},
        queriers=int(w["queriers"]),
        publishers=int(w["publishers"]),
        timeout=WORKLOAD_TIMEOUT,
        seed_time=SEED_TIME,
    )


def end_time(case: FuzzCase) -> float:
    """The instant a run stops (horizon plus workload drain)."""
    if case.workload is None:
        return case.duration
    return case.duration + WORKLOAD_TIMEOUT + DRAIN_SLACK


def _bootstrap(
    case: FuzzCase, trace: bool
) -> Tuple[Network, Any, Optional[KernelTraceRecorder]]:
    """The fault-free prefix: deploy, start, run to ``BOOTSTRAP_TIME``.
    With ``trace`` a kernel trace recorder hooks the kernel first."""
    sim = Simulator(seed=case.seed)
    recorder = KernelTraceRecorder(sim) if trace else None
    network = Network(sim)
    r = case.r
    edges = workload_spec_of(case).client_count if case.workload else 0
    overlay = build_overlay(
        sim, network, platform_config_of(case),
        OverlayDescription(
            rendezvous_count=r,
            topology=case.topology,
            edge_count=edges,
            edge_attachment=[i % r for i in range(edges)] if edges else None,
        ),
    )
    overlay.start()
    sim.run(until=BOOTSTRAP_TIME)
    return network, overlay, recorder


# ---------------------------------------------------------------------------
# one execution
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Everything the oracles compare about one execution; the fields
    its ``reads`` did not name stay at their defaults."""

    invariant_summary: Dict[str, int]
    violations: Tuple[str, ...]
    #: the kernel trace, ``(time, label)`` per fired event
    trace: Optional[List[Tuple[float, str]]] = None
    coverage: Tuple[str, ...] = ()
    slo_json: Optional[str] = None
    trace_ops: Optional[List[Any]] = None

    @property
    def digest(self) -> Optional[str]:
        """:meth:`KernelTraceRecorder.digest` of ``trace``."""
        return None if self.trace is None else trace_digest(self.trace)

    @property
    def workload_digest(self) -> Optional[str]:
        """:meth:`WorkloadTraceRecorder.digest` of ``trace_ops``."""
        return None if self.trace_ops is None else ops_digest(self.trace_ops)


def _coverage_keys(
    snapshot: Dict[str, Any], invariant_summary: Dict[str, int]
) -> Tuple[str, ...]:
    keys = set()
    for group in ("counters", "gauges", "histograms"):
        for name in snapshot.get(group, {}):
            keys.add(f"metric:{group}.{name}")
    for kind in invariant_summary:
        keys.add(f"invariant:{kind}")
    return tuple(sorted(keys))


class _NoHubSession(ObsSession):
    """For an execution whose coverage nobody reads: no hub, and none
    for an ambient session (the campaign runner wraps tasks in one)
    to pay for and keep the overlay alive through."""

    def adopt(self, network) -> None:
        pass


def run_case(
    case: FuzzCase,
    reads: Sequence[str] = EVERYTHING,
    replay_ops: Optional[Sequence[Any]] = None,
) -> RunResult:
    """One seeded execution of ``case`` under the invariant checker,
    collecting what ``reads`` names of :data:`EVERYTHING` for the
    caller."""
    metrics = COVERAGE in reads
    session = activate(ObsSession() if metrics else _NoHubSession())
    try:
        network, overlay, recorder = _bootstrap(case, DIGEST in reads)
        sim = network.sim
        engine = ScenarioEngine(
            sim, network, peers_of(overlay), decode_scenario(case)
        )
        checker = InvariantChecker(sim, overlay.rendezvous, engine)
        spec = workload_spec_of(case)
        wrecorder = wengine = None
        if spec is not None:
            if WORKLOAD in reads:
                wrecorder = WorkloadTraceRecorder()
            wengine = WorkloadEngine(
                spec, sim, overlay.edges, recorder=wrecorder
            )
            if replay_ops is not None:
                wengine.start_replay(replay_ops)
            else:
                wengine.start()
        engine.start()
        sim.run(until=end_time(case))
        checker.check_all()
        engine.stop()
        if wengine is not None:
            wengine.stop()
        checker.detach()
        summary = checker.summary()
        result = RunResult(
            invariant_summary=summary,
            violations=tuple(v.format() for v in checker.violations[:8]),
        )
        if recorder is not None:
            result.trace = recorder.entries
        if metrics:
            result.coverage = _coverage_keys(
                session.merged_snapshot(), summary
            )
        if wrecorder is not None:
            result.slo_json = canonical_json(wengine.slo.snapshot())
            result.trace_ops = wrecorder.ops
        return result
    finally:
        deactivate(session)


def snapshot_skip_reason(case: FuzzCase) -> Optional[str]:
    """Why the snapshot oracle skips ``case``, or None if it probes it."""
    if case.workload is not None or has_churn(case):
        return "workload graphs do not pickle; churn is gated for cost"
    return None


def run_case_with_midpoint_snapshot(
    case: FuzzCase,
) -> Tuple[Optional[list], Optional[list], Optional[str]]:
    """The snapshot-invisibility probe: pause at mid-run, snapshot,
    continue; separately restore the blob and continue that copy.

    Returns ``(continued_trace, restored_trace, skip_reason)`` — the
    kernel traces are None when the case's graph is not snapshottable."""
    reason = snapshot_skip_reason(case)
    if reason is not None:
        return None, None, reason
    t_mid = round((BOOTSTRAP_TIME + case.duration) / 2.0, 1)
    session = activate(ObsSession(metrics=True))
    try:
        network, overlay, recorder = _bootstrap(case, True)
        sim = network.sim
        engine = ScenarioEngine(
            sim, network, peers_of(overlay), decode_scenario(case)
        )
        checker = InvariantChecker(sim, overlay.rendezvous, engine)
        engine.start()
        sim.run(until=t_mid)
        try:
            blob = snapshot_network(
                network,
                extra={
                    "overlay": overlay,
                    "recorder": recorder,
                    "engine": engine,
                    "checker": checker,
                },
            )
        except SnapshotError as exc:
            return None, None, f"mid-run graph unsnapshottable: {exc}"
        sim.run(until=end_time(case))
        checker.check_all()
        engine.stop()
        checker.detach()
        continued = recorder.entries
    finally:
        deactivate(session)

    session = activate(ObsSession(metrics=True))
    try:
        network2, extra2 = restore_network(blob)
        sim2 = network2.sim
        recorder2 = extra2["recorder"]
        checker2 = extra2["checker"]
        engine2 = extra2["engine"]
        sim2.run(until=end_time(case))
        checker2.check_all()
        engine2.stop()
        checker2.detach()
        restored = recorder2.entries
    finally:
        deactivate(session)
    return continued, restored, None


# ---------------------------------------------------------------------------
# the oracle battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    """One oracle failure.  ``signature`` is the stable dedup/digest
    identity; ``detail`` is human-facing only (never digested — it may
    quote trace digests or violation text)."""

    oracle: str
    signature: str
    detail: str


@dataclass
class CaseReport:
    case: FuzzCase
    base: RunResult
    failures: List[Failure] = field(default_factory=list)
    skipped: Tuple[str, ...] = ()


def check_case(
    case: FuzzCase,
    oracles: Sequence[str] = ORACLES,
    coverage: bool = True,
) -> CaseReport:
    """Run ``case`` under the requested oracle subset.  Every execution
    collects what its oracle compares — the base its kernel trace only
    when the snapshot oracle will probe the case — and the base adds
    the coverage keys unless the caller reads ``failures`` only
    (``coverage=False``: shrink probes)."""
    unknown = set(oracles) - set(ORACLES)
    if unknown:
        raise ValueError(f"unknown oracle(s): {sorted(unknown)}")
    need_replay = "replay" in oracles and case.workload is not None
    reads = []
    if "snapshot" in oracles and snapshot_skip_reason(case) is None:
        reads.append(DIGEST)
    if coverage:
        reads.append(COVERAGE)
    if need_replay:
        reads.append(WORKLOAD)
    base = run_case(case, reads=reads)
    failures: List[Failure] = []
    skipped: List[str] = []

    if "invariants" in oracles:
        for kind in sorted(base.invariant_summary):
            detail = next(
                (v for v in base.violations if f" {kind} " in f" {v} "
                 or kind in v),
                f"{base.invariant_summary[kind]} violation(s)",
            )
            failures.append(
                Failure(
                    oracle="invariants",
                    signature=f"invariants:{kind}",
                    detail=detail,
                )
            )

    if "snapshot" in oracles:
        continued, restored, skip = run_case_with_midpoint_snapshot(case)
        if skip is not None:
            skipped.append(f"snapshot: {skip}")
        else:
            if continued != base.trace:
                failures.append(
                    Failure(
                        oracle="snapshot",
                        signature="snapshot-invisibility",
                        detail=(
                            "taking a mid-run snapshot perturbed the run: "
                            f"{trace_digest(continued)[:12]} vs "
                            f"{base.digest[:12]}"
                        ),
                    )
                )
            if restored != base.trace:
                failures.append(
                    Failure(
                        oracle="snapshot",
                        signature="snapshot-restore",
                        detail=(
                            "restored continuation diverged: "
                            f"{trace_digest(restored)[:12]} vs "
                            f"{base.digest[:12]}"
                        ),
                    )
                )

    if "replay" in oracles:
        if case.workload is None:
            skipped.append("replay: case has no workload")
        else:
            replayed = run_case(
                case, reads=(WORKLOAD,), replay_ops=base.trace_ops
            )
            if (
                replayed.trace_ops != base.trace_ops
                or replayed.slo_json != base.slo_json
            ):
                failures.append(
                    Failure(
                        oracle="replay",
                        signature="replay-identity",
                        detail=(
                            "replayed trace/SLO diverged: trace "
                            f"{(replayed.workload_digest or '?')[:12]} vs "
                            f"{(base.workload_digest or '?')[:12]}"
                        ),
                    )
                )

    return CaseReport(
        case=case, base=base, failures=failures, skipped=tuple(skipped)
    )
