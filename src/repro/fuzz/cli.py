"""``jxta-repro fuzz`` — run a deterministic fuzzing campaign.

Budget mode (the default) is fully deterministic: the budget is split
into fixed-size batches seeded from ``--seed`` and the batch index,
so ``--jobs 1`` and ``--jobs 2`` (and reruns) print the same corpus,
coverage map, failure set and digest.  ``--time`` instead keeps
launching batches until the wall-clock budget is spent — useful for
soak runs, at the cost of a run-dependent batch count.

Exit status is 1 when any oracle failure was found (after shrinking),
0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.campaign.runner import run_in_memory
from repro.campaign.spec import CampaignSpec
from repro.fuzz.engine import (
    FuzzReport,
    merge_reports,
    report_from_dict,
    run_batch,
    write_report,
)
from repro.fuzz.runner import ORACLES


def _split_budget(budget: int, batch_size: int) -> List[int]:
    """Jobs-independent batch sizes: full batches plus a remainder."""
    sizes = []
    remaining = budget
    while remaining > 0:
        sizes.append(min(batch_size, remaining))
        remaining -= sizes[-1]
    return sizes


def fuzz_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jxta-repro fuzz",
        description=(
            "Coverage-guided deterministic fuzzing of the protocol "
            "stack (see docs/FUZZING.md)."
        ),
    )
    parser.add_argument(
        "--budget", type=int, default=60,
        help="number of genomes to execute (default 60)",
    )
    parser.add_argument(
        "--time", type=float, default=None, metavar="S",
        help=(
            "run batches until S wall-clock seconds elapsed instead "
            "of a fixed budget (not deterministic across machines)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="master seed (default 0)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; does not affect results (default 1)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=20,
        help="genomes per batch (default 20)",
    )
    parser.add_argument(
        "--oracles", default=None, metavar="A,B",
        help=f"comma-separated oracle subset (default: all of "
             f"{','.join(ORACLES)})",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write fuzz-corpus.jsonl and fuzz-report.json to DIR",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    args = parser.parse_args(argv)
    if args.budget <= 0 or args.batch_size <= 0:
        parser.error("--budget and --batch-size must be positive")
    if args.jobs <= 0:
        parser.error("--jobs must be positive")
    oracles = (
        tuple(s.strip() for s in args.oracles.split(",") if s.strip())
        if args.oracles else ORACLES
    )
    unknown = set(oracles) - set(ORACLES)
    if unknown:
        parser.error(f"unknown oracle(s): {','.join(sorted(unknown))}")

    say = (lambda msg: None) if args.quiet else print

    base = {"master_seed": args.seed, "oracles": oracles}
    if args.time is not None:
        deadline = time.monotonic() + args.time
        reports: List[FuzzReport] = []
        while time.monotonic() < deadline:
            reports.append(report_from_dict(run_batch(
                {**base, "batch": len(reports), "batch_size": args.batch_size}
            )))
        say(f"# fuzz seed={args.seed} time={args.time}s "
            f"-> {len(reports)} batch(es)")
    else:
        sizes = _split_budget(args.budget, args.batch_size)
        say(
            f"# fuzz seed={args.seed} budget={args.budget} "
            f"batches={len(sizes)} jobs={args.jobs}"
        )
        # one fuzz campaign task per batch; a dict axis value carries
        # each batch's own size, so the remainder batch keeps its size
        spec = CampaignSpec(
            name="fuzz", task_type="fuzz", base=base,
            grid={"batch": [
                {"batch": i, "batch_size": n} for i, n in enumerate(sizes)
            ]},
        )
        reports = [
            report_from_dict(record["result"])
            for record in run_in_memory(spec, jobs=args.jobs)
        ]

    report = merge_reports(reports, seed=args.seed)
    say(f"# executed {report.executed} genome(s)")
    say(f"# coverage: {len(report.coverage)} key(s)")
    say(
        f"# corpus: {len(report.entries)} entr"
        f"{'y' if len(report.entries) == 1 else 'ies'} "
        f"({len(report.failures)} failure(s))"
    )
    for entry in report.failures:
        say(f"#   {entry.signature}: {len(entry.case.actions)} action(s)")
    if report.skipped:
        say(f"# skipped oracle checks: {report.skipped}")
    print(f"# digest: {report.digest()}")

    if args.out:
        for path in write_report(report, args.out):
            say(f"# wrote {path}")

    return 1 if report.failures else 0


def main() -> None:
    sys.exit(fuzz_main())


if __name__ == "__main__":
    main()
