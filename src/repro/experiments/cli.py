"""Command-line front end: ``jxta-repro <experiment> [--full] [--seed N]``.

``--full`` runs the paper-scale configuration (580 rendezvous peers,
two-hour timelines, the 0–200 discovery sweep); without it a reduced
but shape-preserving configuration runs in seconds to minutes.

``--seeds N`` runs the experiment as a campaign over N consecutive
seeds (the ``experiment`` task of :mod:`repro.campaign`, in-process)
and reports the cross-seed spread (mean/std/95% CI per result-row
metric) through the campaign aggregator.

``jxta-repro sweep <campaign>`` hands over to the parallel, resumable
campaign orchestrator (:mod:`repro.campaign`) — see
``jxta-repro sweep --list`` and docs/CAMPAIGNS.md.

``jxta-repro trace <target>`` runs a target under the observability
layer (:mod:`repro.obs`) and exports a Perfetto-loadable timeline plus
a metrics snapshot — see docs/OBSERVABILITY.md.

``jxta-repro fuzz`` runs the coverage-guided deterministic protocol
fuzzer (:mod:`repro.fuzz`) — see docs/FUZZING.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments import (
    ablation,
    baselines_exp,
    calibration_exp,
    churn_exp,
    complex_queries,
    faults_exp,
    fig3_left,
    fig3_right,
    fig4_left,
    fig4_right,
    load_exp,
    table1,
    transport_exp,
)

#: CLI name -> experiment module: its ``SIZES`` (``"ci"``/``"full"`` ->
#: keyword arguments of its ``run``) and a ``run(**SIZES[size], seed)``
#: that prints its progress and table and returns its results
EXPERIMENTS = {
    "table1": table1,
    "fig3-left": fig3_left,
    "fig3-right": fig3_right,
    "fig4-left": fig4_left,
    "fig4-right": fig4_right,
    "baselines": baselines_exp,
    "ablation": ablation,
    "churn": churn_exp,
    "complex-queries": complex_queries,
    "faults": faults_exp,
    "load": load_exp,
    "transport": transport_exp,
    "calibration": calibration_exp,
}

#: default on-disk location of the content-addressed checkpoint cache
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"


def run_experiment(name: str, size: str = "ci", seed: int = 1,
                   checkpoint_store=None):
    """``jxta-repro <name>`` at ``size``: print the run and return its
    results.  The checkpoint store reaches the modules whose bootstrap
    warm-starts (those with a ``bootstrap_spec``; docs/CHECKPOINTS.md)."""
    module = EXPERIMENTS[name]
    kwargs = dict(module.SIZES[size], seed=seed)
    if hasattr(module, "bootstrap_spec"):
        kwargs["checkpoint_store"] = checkpoint_store
    return module.run(**kwargs)


def _per_experiment_path(path: str, name: str, many: bool, suffix: str) -> Path:
    """``path``, or ``<stem>-<name><suffix>`` beside it when one run
    writes a file per experiment (``all``)."""
    out = Path(path)
    if many:
        out = out.with_name(f"{out.stem}-{name}{out.suffix or suffix}")
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        # campaign orchestration has its own option surface; the import
        # is lazy because repro.campaign imports this module's registry
        from repro.campaign.cli import main as sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "trace":
        # observability front end (same lazy-import reasoning)
        from repro.obs.cli import trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "fuzz":
        # coverage-guided fuzzer (same lazy-import reasoning)
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(argv[1:])
    warm = sorted(n for n, m in EXPERIMENTS.items() if hasattr(m, "bootstrap_spec"))
    parser = argparse.ArgumentParser(
        prog="jxta-repro",
        description=(
            "Reproduce the tables and figures of 'Performance "
            "scalability of the JXTA P2P framework' (Antoniu et al., "
            "IPDPS 2007)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate (or 'sweep' for "
        "campaign orchestration — see 'jxta-repro sweep --help')",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale run (580 peers / 120 min / full sweeps)",
    )
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run over N consecutive seeds (starting at --seed) and "
            "report the cross-seed spread per metric instead of one "
            "seed's tables (--out writes <experiment>-seeds.*)"
        ),
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help="also write raw result data (CSV/JSON) under DIR",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "record protocol metrics (repro.obs) during the run and "
            "write the merged snapshot as JSON to FILE (for 'all', one "
            "file per experiment with the name suffixed); a summary "
            "table is printed after each experiment"
        ),
    )
    parser.add_argument(
        "--warm-start",
        action="store_true",
        help=(
            "restore the deploy + warm-up bootstrap from the "
            "content-addressed checkpoint cache when a matching "
            "checkpoint exists (building and storing it otherwise); "
            "results are byte-identical to a cold run — see "
            "docs/CHECKPOINTS.md.  Supported by: " + ", ".join(warm)
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "where the checkpoint cache lives (default: "
            f"{DEFAULT_CHECKPOINT_DIR}/); implies --warm-start"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run under cProfile: print the hottest functions and dump "
            "the full profile next to the experiment (see --profile-out)"
        ),
    )
    parser.add_argument(
        "--profile-out",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "where to dump the cProfile stats file (default: "
            "profile-<experiment>.prof in the working directory; for "
            "'all', one file per experiment with the name suffixed); "
            "inspect with 'python -m pstats' or snakeviz"
        ),
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="how many functions to show in the profile report (default 25)",
    )
    args = parser.parse_args(argv)

    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.seeds > 1 and args.metrics_out is not None:
        # each seed's task records under its own obs session, so an
        # outer one would see nothing
        parser.error("--metrics-out records a single run: drop --seeds")
    checkpoint_store = None
    if args.warm_start or args.checkpoint_dir is not None:
        if args.experiment not in warm + ["all"]:
            parser.error(
                f"{args.experiment} does not warm-start; --warm-start and "
                "--checkpoint-dir are supported by: " + ", ".join(warm)
            )
        from repro.snapshot import CheckpointStore

        checkpoint_store = CheckpointStore(
            args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR
        )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    many = len(names) > 1
    for name in names:
        if args.experiment == "all":
            print(f"\n{'=' * 70}\n{name}\n{'=' * 70}")
        obs_session = None
        if args.metrics_out is not None:
            from repro.obs.runtime import ObsSession, activate

            obs_session = activate(ObsSession(metrics=True))
        try:
            if args.profile:
                results = _run_profiled(name, args, checkpoint_store, many)
            else:
                results = _run(name, args, checkpoint_store)
        finally:
            if obs_session is not None:
                from repro.obs.runtime import deactivate

                deactivate(obs_session)
        if obs_session is not None:
            _write_metrics_snapshot(name, obs_session, args, many)
        if args.out is not None:
            from repro.experiments.export import save_results

            label = f"{name}-seeds" if args.seeds > 1 else name
            for path in save_results(label, results, Path(args.out)):
                print(f"# wrote {path}")
    if checkpoint_store is not None:
        c = checkpoint_store.counters()
        print(
            f"\n# checkpoints: {c['hits']} hit(s), {c['misses']} miss(es), "
            f"{c['build_seconds']:.1f}s spent building "
            f"(cache: {checkpoint_store.root})"
        )
    return 0


def _write_metrics_snapshot(name: str, obs_session, args, many: bool) -> None:
    """Export one experiment's merged metrics snapshot (--metrics-out)."""
    from repro.obs.registry import metrics_snapshot_to_json, render_metrics

    path = _per_experiment_path(args.metrics_out, name, many, ".json")
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    snapshot = obs_session.merged_snapshot()
    metrics_snapshot_to_json(snapshot, path)
    print(f"\n# wrote {path}")
    print(render_metrics(snapshot))


def _run(name: str, args, checkpoint_store=None):
    """One seed's results, or with ``--seeds N`` the cross-seed rows."""
    if args.seeds == 1:
        return run_experiment(
            name, "full" if args.full else "ci", args.seed, checkpoint_store
        )
    from repro.campaign.aggregate import aggregate_records, render_aggregate_table
    from repro.campaign.builtin import all_experiments_campaign
    from repro.campaign.progress import ProgressReporter
    from repro.campaign.runner import run_in_memory
    from repro.campaign.tasks import set_warm_store

    spec = all_experiments_campaign(
        full=args.full, seeds=args.seeds, base_seed=args.seed, names=[name]
    )
    # the CLI's checkpoint store serves the in-process tasks, so its
    # counters report their hits and misses
    set_warm_store(checkpoint_store)
    try:
        records = run_in_memory(
            spec, progress=ProgressReporter(total=args.seeds, jobs=1)
        )
    finally:
        set_warm_store(None)
    rows, _ = aggregate_records(records, campaign=name)
    print(
        f"\n{name} — cross-seed spread over seeds "
        f"{args.seed}..{args.seed + args.seeds - 1}\n"
    )
    print(render_aggregate_table(rows))
    return rows


def _run_profiled(name: str, args, checkpoint_store=None, many=False):
    """Run one experiment under cProfile; report and dump the stats."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        results = _run(name, args, checkpoint_store)
    finally:
        profiler.disable()
        if args.profile_out is None:
            dump_path = Path(f"profile-{name}.prof")
        else:
            dump_path = _per_experiment_path(args.profile_out, name, many, ".prof")
        profiler.dump_stats(dump_path)
        stats = pstats.Stats(profiler)
        print(f"\n# profile: top {args.profile_top} functions by cumulative time")
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        print(f"# profile: top {args.profile_top} functions by internal time")
        stats.sort_stats("tottime").print_stats(args.profile_top)
        print(f"# profile dumped to {dump_path} (open with 'python -m pstats')")
    return results


if __name__ == "__main__":
    sys.exit(main())
