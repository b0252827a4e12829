"""Command-line front end: ``jxta-repro <experiment> [--full] [--seed N]``.

``--full`` runs the paper-scale configuration (580 rendezvous peers,
two-hour timelines, the 0–200 discovery sweep); without it a reduced
but shape-preserving configuration runs in seconds to minutes.

``--seeds N`` repeats the experiment over N consecutive seeds and
reports the cross-seed spread (mean/std/95% CI per metric) through the
campaign aggregator.

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

EXPERIMENTS = {
    "table1": table1.main,
    "fig3-left": fig3_left.main,
    "fig3-right": fig3_right.main,
    "fig4-left": fig4_left.main,
    "fig4-right": fig4_right.main,
    "baselines": baselines_exp.main,
    "ablation": ablation.main,
    "churn": churn_exp.main,
    "complex-queries": complex_queries.main,
    "faults": faults_exp.main,
    "load": load_exp.main,
    "transport": transport_exp.main,
    "calibration": calibration_exp.main,
}

#: experiments whose ``main`` accepts ``checkpoint_store=`` (their
#: bootstrap is split out for --warm-start; see docs/CHECKPOINTS.md)
WARMSTART_EXPERIMENTS = frozenset({"fig4-right", "churn", "load"})

#: default on-disk location of the content-addressed checkpoint cache
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"


def _invoke(name: str, full: bool, seed: int, checkpoint_store):
    """Run one experiment main, threading the checkpoint store into
    the ones that support warm-starting."""
    kwargs = {"full": full, "seed": seed}
    if checkpoint_store is not None and name in WARMSTART_EXPERIMENTS:
        kwargs["checkpoint_store"] = checkpoint_store
    return EXPERIMENTS[name](**kwargs)


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
            "repeat over N consecutive seeds (starting at --seed) and "
            "report the cross-seed spread per metric"
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
            "docs/CHECKPOINTS.md.  Supported by: "
            + ", ".join(sorted(WARMSTART_EXPERIMENTS))
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
            "profile-<experiment>.prof in the working directory); "
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
    checkpoint_store = None
    if args.warm_start or args.checkpoint_dir is not None:
        from repro.snapshot import CheckpointStore

        checkpoint_store = CheckpointStore(
            args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR
        )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        if args.experiment == "all":
            print(f"\n{'=' * 70}\n{name}\n{'=' * 70}")
        obs_session = None
        if args.metrics_out is not None:
            from repro.obs.runtime import ObsSession, activate

            obs_session = activate(ObsSession(metrics=True))
        try:
            if args.profile:
                results = _run_profiled(name, args, checkpoint_store)
            else:
                results = _invoke(name, args.full, args.seed, checkpoint_store)
        finally:
            if obs_session is not None:
                from repro.obs.runtime import deactivate

                deactivate(obs_session)
        if obs_session is not None:
            _write_metrics_snapshot(name, obs_session, args, many=len(names) > 1)
        if args.out is not None:
            from pathlib import Path

            from repro.experiments.export import save_results

            for path in save_results(name, results, Path(args.out)):
                print(f"# wrote {path}")
        if args.seeds > 1:
            _run_seed_spread(name, results, args, checkpoint_store)
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
    from pathlib import Path

    from repro.obs.registry import metrics_snapshot_to_json, render_metrics

    path = Path(args.metrics_out)
    if many:
        path = path.with_name(f"{path.stem}-{name}{path.suffix or '.json'}")
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    snapshot = obs_session.merged_snapshot()
    metrics_snapshot_to_json(snapshot, path)
    print(f"\n# wrote {path}")
    print(render_metrics(snapshot))


def _run_seed_spread(name: str, first_results, args, checkpoint_store=None) -> None:
    """Re-run ``name`` for the remaining seeds and print the cross-seed
    spread via the campaign aggregator."""
    from repro.campaign.aggregate import (
        aggregate_records,
        experiment_seed_records,
        render_aggregate_table,
    )

    per_seed = {args.seed: first_results}
    for seed in range(args.seed + 1, args.seed + args.seeds):
        print(f"# seed {seed} ...", flush=True)
        per_seed[seed] = _invoke(name, args.full, seed, checkpoint_store)
    records = experiment_seed_records(name, per_seed)
    rows, _ = aggregate_records(records, campaign=name)
    if not rows:
        print(f"# {name}: no scalar metrics to aggregate across seeds")
        return
    print(
        f"\n{name} — cross-seed spread over seeds "
        f"{args.seed}..{args.seed + args.seeds - 1}\n"
    )
    print(render_aggregate_table(rows))
    if args.out is not None:
        from pathlib import Path

        from repro.experiments.export import save_results

        for path in save_results(f"{name}-seeds", rows, Path(args.out)):
            print(f"# wrote {path}")


def _run_profiled(name: str, args, checkpoint_store=None):
    """Run one experiment under cProfile; report and dump the stats."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        results = _invoke(name, args.full, args.seed, checkpoint_store)
    finally:
        profiler.disable()
        dump_path = args.profile_out or f"profile-{name}.prof"
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
