"""``jxta-repro sweep`` — run a named campaign under the orchestrator.

Examples::

    jxta-repro sweep fig3 --jobs 4 --seeds 3 --out results-fig3
    jxta-repro sweep all --full --jobs 8 --out results   # paper artefacts
    jxta-repro sweep fig3 --jobs 4 --out results-fig3 --resume

The run store lives under ``<out>/campaign/`` (``tasks.jsonl`` +
``manifest.json``); aggregates and per-task artefacts land in
``<out>/``.  A killed run (crash, SIGKILL, Ctrl-C) resumes with
``--resume``: completed task keys are skipped, and the aggregates of a
resumed run are byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign.aggregate import (
    aggregate_records,
    render_aggregate_table,
    write_aggregates,
)
from repro.campaign.builtin import CAMPAIGNS, build_campaign
from repro.campaign.progress import ProgressReporter
from repro.campaign.runner import CampaignRunner, RunnerOptions
from repro.campaign.store import RunStore
from repro.campaign.tasks import FINALIZERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jxta-repro sweep",
        description="parallel, resumable experiment campaigns "
        "(multi-seed grids over the paper's sweeps)",
    )
    parser.add_argument(
        "campaign",
        nargs="?",
        choices=sorted(CAMPAIGNS),
        help="which built-in campaign to run (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list campaigns and exit"
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale grid (580 peers / 120 min / full sweeps)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="seeds per configuration; aggregates report the spread (default 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="BASE",
        help="first seed of the seed axis (default 1)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1 = in-process serial)",
    )
    parser.add_argument(
        "--out", type=str, default=None, metavar="DIR",
        help="run directory (default campaign-runs/<name>)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip tasks already completed in the run store",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-task timeout in seconds (worker killed + task retried)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retries per task after a crash/timeout/error (default 2)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    parser.add_argument(
        "--warm-start", action="store_true",
        help=(
            "restore shared task bootstraps (deploy + warm-up) from the "
            "content-addressed checkpoint cache, building each prefix "
            "once; results stay byte-identical to a cold run "
            "(docs/CHECKPOINTS.md)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help=(
            "checkpoint cache directory (default <out>/checkpoints); "
            "implies --warm-start"
        ),
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or args.campaign is None:
        for name in sorted(CAMPAIGNS):
            spec = build_campaign(name)
            print(f"{name:12s} {len(spec.expand()):4d} task(s)  {spec.description}")
        return 0

    out_dir = Path(args.out) if args.out else Path("campaign-runs") / args.campaign
    spec = build_campaign(
        args.campaign,
        full=args.full,
        seeds=args.seeds,
        base_seed=args.seed,
        out=str(out_dir),
    )
    tasks = spec.expand()
    store = RunStore(out_dir / "campaign")
    progress = ProgressReporter(
        total=len(tasks), jobs=args.jobs, enabled=not args.quiet
    )
    progress.note(
        f"campaign {spec.name}: {len(tasks)} task(s), jobs={args.jobs}, "
        f"store={store.root}"
    )
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and args.warm_start:
        checkpoint_dir = str(out_dir / "checkpoints")
    runner = CampaignRunner(
        spec,
        store,
        RunnerOptions(
            jobs=args.jobs,
            task_timeout=args.timeout,
            max_retries=args.retries,
            checkpoint_dir=checkpoint_dir,
        ),
        progress=progress,
    )
    try:
        manifest = runner.run(resume=args.resume)
    except KeyboardInterrupt:
        print("# aborted hard; run store keeps completed tasks "
              "(use --resume to continue)", file=sys.stderr)
        return 130

    records = list(store.completed().values())
    written = write_aggregates(spec.name, records, out_dir)
    if spec.name in FINALIZERS:
        for line in FINALIZERS[spec.name](records, out_dir):
            print(line)
    rows, _ = aggregate_records(records, campaign=spec.name)
    if rows and not args.quiet:
        print(f"\nCampaign {spec.name} — cross-seed aggregates "
              f"({args.seeds} seed(s))\n")
        print(render_aggregate_table(rows))
    for path in written:
        print(f"# wrote {path}")
    print(
        f"# manifest: {manifest['completed_this_run']} ran, "
        f"{manifest['skipped_resumed']} resumed, "
        f"{len(manifest['failed'])} failed, "
        f"wall {manifest['wall_seconds']:.2f}s, "
        f"speedup est {manifest['parallel_speedup_est']:.2f}x "
        f"({store.manifest_path})"
    )
    if manifest.get("warm_start"):
        print(
            f"# checkpoints: {manifest['checkpoint_hits']} hit(s), "
            f"{manifest['checkpoint_misses']} miss(es), "
            f"{manifest['checkpoint_build_seconds']:.1f}s building, "
            f"~{manifest['checkpoint_saved_seconds_est']:.1f}s saved "
            f"({manifest['checkpoint_dir']})"
        )
    if manifest["interrupted"]:
        print("# interrupted: rerun with --resume to finish", file=sys.stderr)
        return 130
    return 1 if manifest["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
