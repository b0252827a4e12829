"""One run of one workload — the command ``BENCHMARK.json`` names.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then a ``detail`` JSON line
for ``python -m bench run`` (digest, sim metrics, samples), and last
the one JSON object the driver reads.  ``--trace 0`` reports the
end-to-end metrics of an undisturbed run; ``--trace 1`` installs the
span patches, alternates traced and plain units through the same
window, runs the layer probes, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: every one of these changes what the kernel or the pools do, so a run
#: under any of them measures a different program
FORBIDDEN_ENV = (
    "REPRO_SCHEDULER", "REPRO_POOLING", "REPRO_POOL_DEBUG", "REPRO_CANARY",
)
#: tolerance of "layer shares + unattributed = 100 %", and how much of
#: a traced unit may belong to no layer
SHARE_TOLERANCE_PCT = 1.0
UNATTRIBUTED_LIMIT_PCT = 5.0


def env_refusal() -> Optional[str]:
    set_vars = [name for name in FORBIDDEN_ENV if name in os.environ]
    if set_vars:
        return (f"refusing to run with {', '.join(set_vars)} set: the "
                "benchmark measures the default kernel and pools")
    return None


def _costs(units, traced: bool) -> List[float]:
    return [u.wall / u.work for u in units if u.traced is traced and u.work]


def end_to_end_metrics(outcome) -> Dict[str, float]:
    from bench.workloads import window_wall

    wall = window_wall(outcome.units)
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "wall_s": wall,
        "ops_per_s": outcome.ops / wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(outcome, tracer, violations: List[str]) -> Dict[str, float]:
    from bench.catalog import LAYERS, PER_LAYER, PROBES
    from bench.probes import run_probes
    from bench.tracing import summarize
    from bench.workloads import window_wall

    summary = summarize(tracer)
    # spans are read off the raw clock, so shares are of raw seconds
    traced_wall = sum(u.raw for u in outcome.units if u.traced)
    out: Dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
    out.update(outcome.sim)
    out.update(outcome.counters)

    shares = 0.0
    for layer in LAYERS:
        own = summary.self_s.get(layer, 0.0)
        out[f"{layer}.self_s"] = own
        out[f"{layer}.self_share"] = 100.0 * own / traced_wall
        out[f"{layer}.calls"] = summary.calls.get(layer, 0)
        shares += out[f"{layer}.self_share"]
    # time in a traced unit that no span covers, plus spans of packages
    # that are not a layer (peergroup, peerinfo, pipes, ...)
    unattributed = 100.0 * (
        traced_wall - summary.root_s + summary.self_s.get("other", 0.0)
    ) / traced_wall
    out["trace.unattributed_share"] = unattributed
    if abs(shares + unattributed - 100.0) > SHARE_TOLERANCE_PCT:
        violations.append(
            f"layer shares sum to {shares:.2f}% + {unattributed:.2f}% "
            "unattributed, not 100%"
        )
    if not -SHARE_TOLERANCE_PCT <= unattributed <= UNATTRIBUTED_LIMIT_PCT:
        violations.append(
            f"{unattributed:.2f}% of the traced wall time belongs to no "
            f"layer (limit {UNATTRIBUTED_LIMIT_PCT:.0f}%)"
        )

    plain = statistics.median(_costs(outcome.units, False))
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(_costs(outcome.units, True)) / plain - 1.0
    )
    events = outcome.counters.get("sim.events_fired")
    if events is None:
        # fuzz-batch builds its simulators inside check_case: the only
        # view of them is the spans, counted over the traced batches
        per_batch = 1.0 / outcome.traced_passes
        events = summary.events * per_batch
        out["sim.events_fired"] = events
        out["snapshot.snapshots"] = per_batch * summary.by_name.get(
            "snapshot:snapshot_network", 0)
        out["snapshot.restores"] = per_batch * summary.by_name.get(
            "snapshot:restore_network", 0)
        out["sim.us_per_event"] = 1e6 * window_wall(
            [u for u in outcome.units if not u.traced]) / events
    else:
        out["sim.us_per_event"] = 1e6 * plain
        out["sim.alloc_blocks_per_event"] = outcome.alloc_blocks / events

    probes = run_probes()
    missing = {m.name for m in PROBES} - set(probes)
    if missing:
        raise RuntimeError(f"probes not run: {sorted(missing)}")
    out.update(probes)
    return out


def run_once(
    workload: str, seed: int, seconds: float, trace: bool,
    quick: bool = False, spans_out: Optional[str] = None,
) -> dict:
    """Run, check, and return ``{"result": ..., "detail": ...}``."""
    from bench import tracing
    from bench.workloads import run_workload

    tracer = undo = None
    if trace:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
    try:
        outcome = run_workload(workload, seed, seconds, tracer, quick)
    finally:
        if undo is not None:
            tracing.uninstall(undo)

    violations = list(outcome.violations)
    if trace:
        metrics = per_layer_metrics(outcome, tracer, violations)
        if spans_out:
            tracer.save(spans_out)
    else:
        metrics = end_to_end_metrics(outcome)
    return {
        "result": {
            "correct": not violations,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
        "detail": {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "quick": quick,
            "sim_digest": outcome.digest,
            "sim": outcome.sim,
            "latency_samples": outcome.latency_samples,
            "violations": violations,
            "setup_samples": len(outcome.setup_s),
            "units": len(outcome.units),
            "wall_raw_s": sum(u.raw for u in outcome.units),
            "spans": len(tracer) if tracer is not None else 0,
            "calib_s": outcome.calib_s,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="small overlays and short windows (self-tests)")
    parser.add_argument(
        "--spans-out", default=None,
        help="with --trace 1: write the recorded spans to this .npz file")
    args = parser.parse_args(argv)

    refusal = env_refusal()
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from bench.catalog import BY_NAME, RUN_SECONDS, workload_names
        import repro  # noqa: F401  (fail here, not mid-run, if src/ is absent)
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workload_names())}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    if seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return 2

    out = run_once(
        args.workload, args.seed, seconds, bool(args.trace),
        quick=args.quick, spans_out=args.spans_out,
    )
    result, detail = out["result"], out["detail"]
    print(f"# {args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace} sim_digest={detail['sim_digest'][:16]}")
    for name, value in result["metrics"].items():
        metric = BY_NAME[name]
        print(f"{name:42s} {value:16.6g} {metric.unit:8s} {metric.kind}")
    for violation in detail["violations"]:
        print(f"VIOLATION: {violation}")
    print(json.dumps({"detail": detail}))
    result["metrics"] = {
        name: {"value": value, "unit": BY_NAME[name].unit}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
