#!/usr/bin/env python
"""Alternating parent/change pairs of the end-to-end benchmark.

The rule every performance claim follows (ROADMAP.md ground rules;
bench/README.md, "Reading ``compare``"): at least ten pairs of
``python -m bench run`` on the base commit and on the working tree,
alternating which side runs first, pooled with ``python -m bench
compare``, every run reported.  This is that rule as one command::

    python scripts/bench_pairs.py --base REV --workloads peerview-580 --pairs 10
    python scripts/bench_pairs.py --base REV --workloads peerview-580 --pairs 10 --seed 2

The base is unpacked with ``git archive`` under ``.benchmarks/pairs/``
(removed again at the end; nothing is registered in ``.git``) and runs
its *own* copy of ``bench/``; the working tree — committed or not — is
the other side.  Results land in ``.benchmarks/pairs/<base>-seed<S>-<workloads>/``;
the script prints the compare table and one line per run, and exits
non-zero when any run failed the benchmark's correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PAIRS_DIR = REPO / ".benchmarks" / "pairs"


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def _bench(tree: Path, *args: str) -> int:
    """``python -m bench ...`` inside ``tree``, against that tree's src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=tree, env=env,
    ).returncode


def _report(path: Path) -> str:
    """One line per (run, workload): every gated end-to-end sample."""
    workloads = json.loads(path.read_text())["workloads"]
    lines = []
    for name, entry in workloads.items():
        samples = "  ".join(
            f"{metric} {values['samples'][0]:.5g}"
            for metric, values in entry["end_to_end"].items()
        )
        lines.append(
            f"  {path.name:12s} {name:15s} {samples}  "
            f"sim_digest {entry['sim_digest'][:12]}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes: checks the plumbing, measures nothing")
    args = parser.parse_args(argv)

    sha = _git("rev-parse", "--short", f"{args.base}^{{commit}}")
    names = args.workloads.replace(",", "+")
    out = PAIRS_DIR / f"{sha}-seed{args.seed}-{names}"
    out.mkdir(parents=True, exist_ok=True)
    base_tree = PAIRS_DIR / f"tree-{sha}"
    shutil.rmtree(base_tree, ignore_errors=True)  # left by a killed run
    run_args = ["run", "--repeats", "1", "--seed", str(args.seed),
                "--workloads", args.workloads]
    if args.quick:
        run_args.append("--quick")

    sides = {"base": base_tree, "new": REPO}
    runs = []  # (side, result file), in the order made
    failed = 0
    base_tree.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", sha], cwd=REPO, capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
    try:
        for pair in range(1, args.pairs + 1):
            first = ("base", "new") if pair % 2 else ("new", "base")
            for side in first:
                path = out / f"{side}{pair}.json"
                print(f"== pair {pair}/{args.pairs}: {side}", flush=True)
                failed += _bench(sides[side], *run_args, "--out", str(path)) != 0
                runs.append((side, path))
    finally:
        shutil.rmtree(base_tree)

    print(f"\n== python -m bench compare (base {sha} vs working tree, "
          f"seed {args.seed}, {args.pairs} pairs)", flush=True)
    _bench(REPO, "compare", *(
        ",".join(str(path) for side, path in runs if side == which)
        for which in ("base", "new")
    ))
    print("\n== every run, in the order made")
    for _, path in runs:
        print(_report(path))
    if failed:
        print(f"\n{failed} run(s) failed the correctness gate", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
