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
the other side.  Each run's full JSON lands in
``.benchmarks/pairs/<base>-seed<S>-<workloads>/`` and is boiled down to
one compact ``pairs.jsonl`` there: the shared ``env`` on the first line,
then one line per (run, workload) with the side, the pair and the run's
place in the alternation, the four gated end-to-end metrics,
``sim_digest``, ``workload.failed_share``, a hash of every other
simulated value (``sim_sha``) and the per-layer metrics named by
``--layers`` — an array under the column names the first line lists —,
gzipped as ``pairs.jsonl.gz`` (no timestamp in the gzip header, so the
same runs give the same bytes).  That file is what a claim commits,
beside its ``SUMMARY.md``, as
``results/perf/PR-<n>/seed<S>-<workloads>.jsonl.gz``
(``tests/unit/test_perf_evidence.py`` re-derives the summary's table
from it).  The full JSONs, and the ``spans-<workload>.npz`` files the
traced passes leave beside them, are deleted once it is written unless
``--keep-full`` is given, and even then stay under ``.benchmarks/``.
Each ``python -m bench`` runs in a session of its own; a SIGTERM or
Ctrl-C to the script kills that whole process group, removes the
unpacked base and, when no ``pairs.jsonl.gz`` was written, the
group's partial run directory.  The script prints the compare table
and one line per run, and exits non-zero when any run failed the
benchmark's correctness gate.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import zlib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PAIRS_DIR = REPO / ".benchmarks" / "pairs"


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def _terminate(signum, frame):
    """SIGTERM as an exception, so that every ``finally`` runs."""
    raise SystemExit(128 + signum)


def _bench(tree: Path, *args: str) -> int:
    """``python -m bench ...`` inside ``tree``, against that tree's src,
    in a session of its own: if the script is stopped while it waits,
    the run and every process it started are killed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    child = subprocess.Popen(
        [sys.executable, "-m", "bench", *args], cwd=tree, env=env,
        start_new_session=True,
    )
    try:
        return child.wait()
    finally:
        if child.returncode is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


#: the gated end-to-end metrics (BENCHMARK.json ``end_to_end``)
GATED = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb")
#: per-layer metrics a summary usually quotes beside the gated ones
DEFAULT_LAYERS = (
    "sim.events_fired",
    "sim.alloc_blocks_per_event",
    "trace.unattributed_share",
    "snapshot.blob_mb",
)
#: kind-``sim`` values kept by name in ``layers`` rather than hashed:
#: the blob size moves with every pickled-layout change
_UNHASHED = ("snapshot.blob_mb",)


def sim_sha(entry: dict) -> str:
    """A hash of every simulated value of one workload's result: its
    ``sim`` metrics and every per-layer value of kind ``sim`` (all
    ``<layer>.calls`` among them) but the blob size.  Equal on both
    sides is what a host-only change promises."""
    values = dict(entry["sim"])
    values.update(
        (name, metric["value"])
        for name, metric in entry["per_layer"].items()
        if metric["kind"] == "sim" and name not in _UNHASHED
    )
    blob = json.dumps(sorted(values.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _short(value):
    """Seven significant digits: past what any summary quotes."""
    return float(f"{value:.7g}") if isinstance(value, float) else value


#: a compact run line's columns, before the ``--layers`` ones
COLUMNS = ("workload", "side", "pair", "order", *GATED,
           "sim_digest", "failed_share", "sim_sha")


def compact_row(side: str, pair: int, order: int, workload: str,
                entry: dict, layers) -> list:
    """One (run, workload) of a full ``bench run`` JSON, compacted."""
    e2e, per_layer = entry["end_to_end"], entry["per_layer"]
    return [
        workload, side, pair, order,
        *(_short(e2e[metric]["median"]) for metric in GATED),
        entry["sim_digest"][:12], entry["sim"]["workload.failed_share"],
        sim_sha(entry),
        *(_short(per_layer[name]["value"]) if name in per_layer else None
          for name in layers),
    ]


def write_pairs(path: Path, runs, layers) -> None:
    """``pairs.jsonl.gz`` from ``runs`` = [(side, pair, order, full JSON
    path)]: ``env`` (the commit per side) and the column names once,
    then one array per (run, workload)."""
    env, rows = None, []
    for side, pair, order, full in runs:
        result = json.loads(full.read_text())
        run_env = dict(result["env"])
        commit = run_env.pop("commit")
        if env is None:
            env = dict(run_env, commit={})
        elif {k: v for k, v in env.items() if k != "commit"} != run_env:
            raise ValueError(f"{full}: env differs from the first run's")
        if env["commit"].setdefault(side, commit) != commit:
            raise ValueError(f"{full}: a second {side} commit")
        for workload, entry in result["workloads"].items():
            rows.append(compact_row(side, pair, order, workload, entry, layers))
    text = "".join(
        json.dumps(record, separators=(",", ":")) + "\n"
        for record in [{"env": env, "columns": [*COLUMNS, *layers]}, *rows]
    )
    path.write_bytes(gzip_bytes(text.encode()))


def gzip_bytes(data: bytes) -> bytes:
    """``data`` as a gzip member with no timestamp (the same rows give
    the same bytes): the smaller of zlib's default and filtered deflate
    at level 9, which read back alike."""
    members = []
    for strategy in (zlib.Z_DEFAULT_STRATEGY, zlib.Z_FILTERED):
        deflate = zlib.compressobj(9, zlib.DEFLATED, 31, 9, strategy)
        members.append(deflate.compress(data) + deflate.flush())
    return min(members, key=len)


def read_pairs(path: Path):
    """``(env, [one dict per (run, workload)])`` of a ``pairs.jsonl.gz``."""
    text = gzip.decompress(path.read_bytes()).decode()
    header, *rows = map(json.loads, text.splitlines())
    return header["env"], [dict(zip(header["columns"], row)) for row in rows]


def _report(line: dict) -> str:
    """One (run, workload): every gated end-to-end sample."""
    samples = "  ".join(f"{metric} {line[metric]:.5g}" for metric in GATED)
    return (
        f"  {line['side'] + str(line['pair']):7s} {line['workload']:15s} "
        f"{samples}  sim_digest {line['sim_digest']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes: checks the plumbing, measures nothing")
    parser.add_argument("--layers", default=",".join(DEFAULT_LAYERS),
                        help="comma-separated per-layer metrics to keep per run")
    parser.add_argument("--keep-full", action="store_true",
                        help="keep each run's full JSON (and the last traced "
                        "pass's spans) beside pairs.jsonl.gz")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    sha = _git("rev-parse", "--short", f"{args.base}^{{commit}}")
    names = args.workloads.replace(",", "+")
    out = PAIRS_DIR / f"{sha}-seed{args.seed}-{names}"
    out.mkdir(parents=True, exist_ok=True)
    base_tree = PAIRS_DIR / f"tree-{sha}"
    shutil.rmtree(base_tree, ignore_errors=True)  # left by a SIGKILLed run
    run_args = ["run", "--repeats", "1", "--seed", str(args.seed),
                "--workloads", args.workloads]
    if args.quick:
        run_args.append("--quick")

    sides = {"base": base_tree, "new": REPO}
    runs = []  # (side, pair, order, full result file), in the order made
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
                runs.append((side, pair, len(runs) + 1, path))
    except BaseException:
        if not (out / "pairs.jsonl.gz").exists():
            shutil.rmtree(out)
        raise
    finally:
        shutil.rmtree(base_tree)

    print(f"\n== python -m bench compare (base {sha} vs working tree, "
          f"seed {args.seed}, {args.pairs} pairs)", flush=True)
    _bench(REPO, "compare", *(
        ",".join(str(path) for side, _, _, path in runs if side == which)
        for which in ("base", "new")
    ))
    compact = out / "pairs.jsonl.gz"
    write_pairs(compact, runs, [n for n in args.layers.split(",") if n])
    if not args.keep_full:
        for *_, path in runs:
            path.unlink()
        # every traced pass writes its spans beside the run JSON (and
        # overwrites the previous pass's): only the last survives
        for spans in out.glob("spans-*.npz"):
            spans.unlink()
    print(f"\n== every run, in the order made ({compact})")
    for line in read_pairs(compact)[1]:
        print(_report(line))
    if failed:
        print(f"\n{failed} run(s) failed the correctness gate", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
