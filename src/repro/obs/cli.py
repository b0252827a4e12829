"""``jxta-repro trace <target>`` — record a run's timeline and metrics.

``target`` can be any experiment module (``fig3-left``, ``table1``,
...) or any named campaign (``fig3-smoke``, ``churn``, ...; the
campaign's *first* task is traced, a deterministic representative).
Golden scenarios are regenerated separately — see
``scripts/regen_goldens.py``.

Outputs, under ``--out`` (default ``.``):

* ``trace-<target>.json`` — Chrome ``trace_event`` format: open it at
  https://ui.perfetto.dev (or chrome://tracing) to audit the run
  visually, one track per peer;
* ``trace-<target>.jsonl`` — the canonical JSONL timeline (with
  ``--jsonl``);
* ``metrics-<target>.json`` — the merged metrics snapshot, plus a
  summary table on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.runtime import ObsSession, activate, deactivate


def _run_target(name: str, full: bool, seed: int) -> None:
    """Run the traced workload (inside an active session)."""
    from repro.experiments.cli import EXPERIMENTS, run_experiment

    if name in EXPERIMENTS:
        run_experiment(name, "full" if full else "ci", seed)
        return
    from repro.campaign.builtin import CAMPAIGNS, build_campaign

    if name in CAMPAIGNS:
        from repro.campaign.tasks import TASKS

        spec = build_campaign(name, full=full, base_seed=seed)
        task = spec.expand()[0]
        print(f"# tracing campaign {name!r}, task {task.label()}")
        TASKS[task.task_type](task.params)
        return
    raise KeyError(f"unknown trace target {name!r}")


def trace_main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    from repro.campaign.builtin import CAMPAIGNS
    from repro.experiments.cli import EXPERIMENTS

    targets = sorted(set(EXPERIMENTS) | set(CAMPAIGNS))
    parser = argparse.ArgumentParser(
        prog="jxta-repro trace",
        description="Run a target with the observability layer on and "
        "export its timeline (Perfetto-loadable) and metrics",
    )
    parser.add_argument("target", choices=targets)
    parser.add_argument("--full", action="store_true", help="paper-scale run")
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    parser.add_argument(
        "--out", type=str, default=".", metavar="DIR",
        help="directory for trace/metrics artefacts (default: .)",
    )
    parser.add_argument(
        "--jsonl", action="store_true",
        help="also write the canonical JSONL timeline",
    )
    parser.add_argument(
        "--kernel", action="store_true",
        help="include kernel scheduler fires in the trace (verbose)",
    )
    parser.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="ring-buffer capacity (oldest events drop beyond it)",
    )
    parser.add_argument(
        "--categories", type=str, default=None, metavar="CAT[,CAT...]",
        help="only record these categories (e.g. peerview,discovery)",
    )
    args = parser.parse_args(argv)

    categories = (
        tuple(c.strip() for c in args.categories.split(",") if c.strip())
        if args.categories else None
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    session = ObsSession(
        metrics=True,
        trace=True,
        trace_kernel=args.kernel,
        trace_capacity=args.capacity,
        categories=categories,
    )
    activate(session)
    try:
        _run_target(args.target, full=args.full, seed=args.seed)
    finally:
        deactivate(session)

    from repro.obs.registry import metrics_snapshot_to_json, render_metrics
    from repro.obs.tracer import merged_chrome_trace

    tracers = session.tracers()
    trace_path = out_dir / f"trace-{args.target}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(merged_chrome_trace(tracers), fh)
    events = sum(len(t) for t in tracers)
    dropped = sum(t.dropped for t in tracers)
    print(f"# wrote {trace_path} ({events} events"
          + (f", {dropped} dropped" if dropped else "") + ")")
    print("# open it at https://ui.perfetto.dev")

    if args.jsonl:
        jsonl_path = out_dir / f"trace-{args.target}.jsonl"
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for tracer in tracers:
                for line in tracer.to_jsonl_lines():
                    fh.write(line + "\n")
        print(f"# wrote {jsonl_path}")

    snapshot = session.merged_snapshot()
    metrics_path = out_dir / f"metrics-{args.target}.json"
    metrics_snapshot_to_json(snapshot, metrics_path)
    print(f"# wrote {metrics_path}\n")
    print(render_metrics(snapshot))
    return 0


if __name__ == "__main__":
    sys.exit(trace_main())
