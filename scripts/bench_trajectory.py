#!/usr/bin/env python
"""Maintain the committed benchmark trajectory (``BENCH_kernel.json``).

Every PR that touches the hot paths appends its numbers to the
trajectory, so regressions are visible as history rather than folklore.
Three subcommands:

``record``
    Fold pytest-benchmark JSON exports into the trajectory file::

        python -m pytest benchmarks/ --benchmark-only \\
            --benchmark-json=.benchmarks/latest.json
        python scripts/bench_trajectory.py record .benchmarks/latest.json \\
            [.benchmarks/fuzz-1.json ...] --label "PR 2" [--commit abc1234]

    Given several reports (separate invocations), each benchmark's entry
    holds the best ``min`` and the best value of each extra key among
    the reports that ran it, the way ``check`` reads them.

``show``
    Print the trajectory as a table (per benchmark, oldest first, with
    the speedup of each entry relative to the first one).

``check``
    Assert a floor: fail (exit 1) if a benchmark's min time exceeds
    ``--max-seconds``, its peak RSS exceeds ``--max-rss-kb``, what it
    retains per publish exceeds ``--max-bytes-per-publish``, or a fuzz
    slice exceeds ``--max-us-per-fuzz-event`` /
    ``--max-executions-per-genome``.  Given several reports (separate
    invocations of the same benchmark) each floor reads the best of
    them.  Used by the CI ``bench-smoke`` job::

        python scripts/bench_trajectory.py check .benchmarks/latest.json \\
            --bench test_event_loop_throughput --max-seconds 0.8
        python scripts/bench_trajectory.py check .benchmarks/latest.json \\
            --bench test_fullscale_steady_state_throughput \\
            --max-rss-kb 92866
        python scripts/bench_trajectory.py check .benchmarks/ci.json \\
            --bench test_publish_retained_bytes --max-bytes-per-publish 515
        python scripts/bench_trajectory.py check .benchmarks/ci.json \\
            .benchmarks/fuzz-*.json --bench test_fuzz_slice_cost \\
            --max-us-per-fuzz-event 16.4 --max-executions-per-genome 2.59

Only ``min`` is compared across entries: it is the statistic least
polluted by scheduler noise (the median moves tens of percent between
otherwise identical runs on shared machines; the min is stable).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _load_trajectory(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"benchmarks": {}}


def _stats_of(report: dict) -> dict:
    """name -> stats dict from a pytest-benchmark JSON export."""
    out = {}
    for bench in report.get("benchmarks", []):
        out[bench["name"]] = bench["stats"]
    return out


#: extra_info keys (attached by ``benchmarks/conftest.py`` and by the
#: steady-state benchmarks themselves) copied into trajectory entries
#: when present.  ``peak_rss_kb`` is always emitted; ``alloc_per_event``
#: by the benchmarks that measure it; the tracemalloc pair only under
#: ``REPRO_BENCH_TRACEMALLOC=1``; ``us_per_walk_hop`` by
#: ``benchmarks/test_bench_walk.py``; ``bytes_per_publish`` by
#: ``benchmarks/test_bench_publish.py``; ``us_per_fuzz_event`` and
#: ``executions_per_genome`` by ``benchmarks/test_bench_fuzz.py``.
EXTRA_KEYS = (
    "peak_rss_kb",
    "alloc_per_event",
    "tracemalloc_peak_kb",
    "tracemalloc_alloc_blocks",
    "us_per_walk_hop",
    "us_per_flat_lookup",
    "bytes_per_publish",
    "us_per_fuzz_event",
    "executions_per_genome",
)


def _extra_info_of(report: dict) -> dict:
    """name -> extra_info dict from a pytest-benchmark JSON export."""
    return {
        bench["name"]: bench.get("extra_info", {})
        for bench in report.get("benchmarks", [])
    }


def cmd_record(args: argparse.Namespace) -> int:
    reports = [json.loads(Path(path).read_text()) for path in args.reports]
    trajectory = _load_trajectory(TRAJECTORY)
    machine = reports[0].get("machine_info", {})
    recorded_at = reports[0].get("datetime", "")
    # name -> [(stats, extra_info)], one per report that ran it
    runs: dict = {}
    for report in reports:
        extra = _extra_info_of(report)
        for name, s in _stats_of(report).items():
            runs.setdefault(name, []).append((s, extra.get(name, {})))
    if not runs:
        print(f"no benchmarks found in {' '.join(args.reports)}", file=sys.stderr)
        return 1
    for name, measured in runs.items():
        # the best (lowest) min and extra values over the reports, as
        # ``check`` reads them; the other statistics are the best min's
        s = min((s for s, _ in measured), key=lambda s: s["min"])
        entry = {
            "label": args.label,
            "recorded_at": recorded_at,
            "min_s": s["min"],
            "median_s": s["median"],
            "mean_s": s["mean"],
            "stddev_s": s["stddev"],
            "rounds": s["rounds"],
            "python": machine.get("python_version", ""),
        }
        for key in EXTRA_KEYS:
            values = [extra[key] for _, extra in measured if key in extra]
            if values:
                entry[key] = min(values)
        if args.commit:
            entry["commit"] = args.commit
        trajectory["benchmarks"].setdefault(name, []).append(entry)
        print(f"recorded {name}: min {s['min'] * 1e3:.1f} ms ({args.label})")
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"wrote {TRAJECTORY}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    trajectory = _load_trajectory(TRAJECTORY)
    benches = trajectory.get("benchmarks", {})
    if not benches:
        print("trajectory is empty")
        return 0
    for name, entries in benches.items():
        print(f"\n{name}")
        # render defensively: hand-edited or pre-rename entries may
        # miss min_s/median_s/peak_rss_kb (or carry null values);
        # such fields print as "?" instead of crashing the report
        base = next(
            (e.get("min_s") for e in entries if e.get("min_s")), None
        )
        prev_min = None
        prev_rss = None
        for e in entries:
            min_s = e.get("min_s")
            median_s = e.get("median_s")
            rss_kb = e.get("peak_rss_kb")
            alloc = e.get("alloc_per_event")
            commit = e.get("commit", "")
            min_txt = f"{min_s * 1e3:9.1f} ms" if min_s else "        ?"
            med_txt = f"{median_s * 1e3:9.1f} ms" if median_s else "        ?"
            if min_s and base:
                speed_txt = f"x{base / min_s:5.2f}"
            else:
                speed_txt = "x    ?"
            # per-label deltas against the previous entry that had the
            # same statistic (time and RSS both)
            delta_txt = ""
            if min_s and prev_min:
                delta_txt = f"  {100.0 * (min_s - prev_min) / prev_min:+6.1f}%"
            rss_txt = ""
            if rss_kb is not None:
                rss_txt = f"  rss {rss_kb / 1024:6.0f} MB"
                if prev_rss:
                    rss_txt += (
                        f" ({100.0 * (rss_kb - prev_rss) / prev_rss:+5.1f}%)"
                    )
            alloc_txt = (
                f"  alloc/ev {alloc:6.2f}" if alloc is not None else ""
            )
            hop = e.get("us_per_walk_hop")
            hop_txt = f"  us/hop {hop:6.2f}" if hop is not None else ""
            held = e.get("bytes_per_publish")
            held_txt = f"  B/publish {held:7.1f}" if held is not None else ""
            fuzz = e.get("us_per_fuzz_event")
            fuzz_txt = (
                f"  us/fuzz-ev {fuzz:6.2f}"
                f"  exec/genome {e.get('executions_per_genome', 0):4.2f}"
                if fuzz is not None else ""
            )
            print(
                f"  {e.get('label', '?'):<28} min {min_txt}"
                f"  median {med_txt}  {speed_txt}{delta_txt}"
                f"{rss_txt}{alloc_txt}{hop_txt}{held_txt}{fuzz_txt}  {commit}"
            )
            if min_s:
                prev_min = min_s
            if rss_kb is not None:
                prev_rss = rss_kb
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    """Print the memory telemetry attached by benchmarks/conftest.py."""
    report = json.loads(Path(args.report).read_text())
    extra = _extra_info_of(report)
    if not extra:
        print(f"no benchmarks found in {args.report}", file=sys.stderr)
        return 1
    for name, info in extra.items():
        rss = info.get("peak_rss_kb")
        peak = info.get("tracemalloc_peak_kb")
        blocks = info.get("tracemalloc_alloc_blocks")
        alloc = info.get("alloc_per_event")
        line = f"{name}: peak RSS {rss / 1024:.0f} MB" if rss else name
        if alloc is not None:
            line += f", {alloc:.2f} allocated blocks/event"
        if peak is not None:
            line += f", tracemalloc peak {peak / 1024:.1f} MB"
        if blocks is not None:
            line += f", {blocks} live allocation blocks"
        print(line)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    stats, extras = [], []
    for path in args.reports:
        report = json.loads(Path(path).read_text())
        s = _stats_of(report).get(args.bench)
        if s is None:
            print(f"benchmark {args.bench!r} not in {path}", file=sys.stderr)
            return 1
        stats.append(s)
        extras.append(_extra_info_of(report).get(args.bench, {}))
    # each floor reads the best (lowest) value over the reports: the
    # min over invocations, as ``min`` is the best round of one
    best = f" (best of {len(stats)})" if len(stats) > 1 else ""
    failed = False
    if args.max_seconds is not None:
        min_s = min(s["min"] for s in stats)
        print(
            f"{args.bench}: min {min_s * 1e3:.4g} ms{best}"
            f" (floor {args.max_seconds * 1e3:.4g} ms)"
        )
        if min_s > args.max_seconds:
            print("FAIL: benchmark slower than the floor", file=sys.stderr)
            failed = True
    more_memory = "benchmark used more memory than the floor"
    extra_floors = (
        ("peak_rss_kb", args.max_rss_kb, "peak RSS", "KB", more_memory),
        ("bytes_per_publish", args.max_bytes_per_publish,
         "retained per publish", "B", more_memory),
        ("us_per_fuzz_event", args.max_us_per_fuzz_event,
         "per fuzzed event", "us", "fuzzed event slower than the floor"),
        ("executions_per_genome", args.max_executions_per_genome,
         "executions per genome", "x",
         "more executions per genome than the floor"),
    )
    for key, limit, what, unit, complaint in extra_floors:
        if limit is None:
            continue
        values = [extra.get(key) for extra in extras]
        if None in values:
            print(f"FAIL: {args.bench} recorded no {key}", file=sys.stderr)
            failed = True
            continue
        value = min(values)
        print(
            f"{args.bench}: {what} {value} {unit}{best} "
            f"(floor {limit:g} {unit})"
        )
        if value > limit:
            print(f"FAIL: {complaint}", file=sys.stderr)
            failed = True
    if args.max_seconds is None and all(
        floor[1] is None for floor in extra_floors
    ):
        print("check: nothing to check (pass --max-seconds or another "
              "--max-* floor)", file=sys.stderr)
        return 1
    if failed:
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("record", help="append a pytest-benchmark export")
    p.add_argument(
        "reports", nargs="+", metavar="report",
        help="pytest-benchmark JSON file; with several (invocations of "
        "the same benchmarks), each benchmark records its best values",
    )
    p.add_argument("--label", required=True, help="trajectory entry label")
    p.add_argument("--commit", default="", help="git commit of the run")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("show", help="print the trajectory")
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("memory", help="print memory telemetry of a report")
    p.add_argument("report", help="pytest-benchmark JSON file")
    p.set_defaults(fn=cmd_memory)

    p = sub.add_parser("check", help="assert a floor on one benchmark")
    p.add_argument(
        "reports", nargs="+", metavar="report",
        help="pytest-benchmark JSON file; with several (invocations of "
        "the same benchmark), each floor reads the best value among them",
    )
    p.add_argument("--bench", required=True, help="benchmark name")
    p.add_argument(
        "--max-seconds", type=float, default=None,
        help="fail if the min time exceeds this many seconds",
    )
    p.add_argument(
        "--max-rss-kb", type=float, default=None,
        help="fail if the benchmark's peak RSS (ru_maxrss, KB) exceeds "
        "this value; ru_maxrss is process-cumulative, so run the "
        "benchmark this guards FIRST in its pytest invocation",
    )
    p.add_argument(
        "--max-bytes-per-publish", type=float, default=None,
        help="fail if the benchmark's bytes_per_publish (tracemalloc "
        "growth / publishes, benchmarks/test_bench_publish.py) exceeds "
        "this value",
    )
    p.add_argument(
        "--max-us-per-fuzz-event", type=float, default=None,
        help="fail if the benchmark's us_per_fuzz_event (wall clock / "
        "events fired under the oracle battery, "
        "benchmarks/test_bench_fuzz.py) exceeds this value",
    )
    p.add_argument(
        "--max-executions-per-genome", type=float, default=None,
        help="fail if the fuzz slice ran more executions per genome "
        "than this (a count: it repeats exactly)",
    )
    p.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
