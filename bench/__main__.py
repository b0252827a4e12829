"""``PYTHONPATH=src python -m bench run | compare | noise``."""

from __future__ import annotations

import argparse
import sys

from bench import harness


def _suite_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="small overlays and short windows: seconds, not minutes; "
             "the numbers mean nothing")
    parser.add_argument(
        "--workloads", default=None,
        help="comma-separated subset (default: all five)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run every workload, check outputs, write one JSON")
    _suite_options(run)
    run.add_argument("--out", default=harness.DEFAULT_OUT)
    run.set_defaults(fn=harness.cmd_run)

    compare = sub.add_parser(
        "compare", help="one verdict per (workload, end-to-end metric)")
    compare.add_argument("base", help="result file(s) of the baseline, comma-separated")
    compare.add_argument("new", help="result file(s) of the change, comma-separated")
    compare.set_defaults(fn=harness.cmd_compare)

    noise = sub.add_parser(
        "noise", help="A/A gate: the suite twice must compare as unchanged")
    _suite_options(noise)
    noise.add_argument("--out-dir", default=".benchmarks/bench")
    noise.set_defaults(fn=harness.cmd_noise)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
