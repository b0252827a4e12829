#!/usr/bin/env python
"""Where a benchmark workload's memory is, and what the collector costs.

    python scripts/heap_census.py WORKLOAD [--seed N] [--quick] [--top K]
                                  [--json OUT] [--against BASE.json]

Builds one of the end-to-end benchmark's overlay scenarios exactly as
``bench/workloads.py`` does (imported, not copied; nothing under
``bench/`` is touched), runs its measured window unit by unit under
tracemalloc, and prints

* the top-K source lines by live bytes at the end of the window, and
  the top-K by growth over the window;
* the census of GC-tracked objects by type (what a full collection has
  to visit);
* every collector pass the run triggered: generation, milliseconds,
  and whether it ran inside or outside ``Simulator.run`` — the kernel
  keeps the collector off while it runs and re-enables it on return,
  so the run's whole debt is paid by the first container allocated
  *after* ``run()`` (docs/PERFORMANCE.md, "Where the collector's pause
  lands") — and one explicit full collection at the end.

``--json OUT`` writes the by-line and by-type tables (whole, not the
top K) as data; ``--against BASE.json`` reads such a file — written by
the same command in a checkout of the parent commit — and prints what
each line and each type gained or lost against it.

This is how the per-fact tables in docs/PERFORMANCE.md ("What a
resident view entry costs", "What a published advertisement costs")
are sized: one command on each side.  tracemalloc makes the run
several times slower and a few times larger; byte counts are exact,
wall times are not the benchmark's.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]

from bench.catalog import RUN_SECONDS  # noqa: E402
from bench.workloads import OVERLAY_SIZES, QUICK_SIZES, build_scenario  # noqa: E402


def _by_line() -> dict:
    """``{file:line: (live bytes, live blocks)}`` right now.  The
    snapshot itself — a GC-tracked tuple per traced block — is dropped
    again, so it is in neither the census nor the collector's way."""
    out = {}
    for stat in tracemalloc.take_snapshot().statistics("lineno"):
        frame = stat.traceback[0]
        if frame.filename == __file__:
            continue  # this script's own bookkeeping
        try:
            name = Path(frame.filename).resolve().relative_to(REPO)
        except ValueError:
            name = frame.filename
        out[f"{name}:{frame.lineno}"] = (stat.size, stat.count)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(OVERLAY_SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="the benchmark's toy sizes")
    parser.add_argument("--top", type=int, default=15, metavar="K")
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="write the by-line and by-type tables here")
    parser.add_argument("--against", type=Path, metavar="BASE.json",
                        help="print the deltas against an earlier --json file")
    args = parser.parse_args(argv)
    sizes = (QUICK_SIZES if args.quick else OVERLAY_SIZES)[args.workload]

    passes = []  # (generation, seconds, inside Simulator.run, collected)
    inside_run = False
    started = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = perf_counter()
        else:
            passes.append((info["generation"], perf_counter() - started[0],
                           inside_run, info["collected"]))

    tracemalloc.start()
    gc.callbacks.append(on_gc)
    try:
        sc = build_scenario(sizes, args.seed, RUN_SECONDS)
        gc.collect()
        before = _by_line()
        held = tracemalloc.get_traced_memory()[0]
        del passes[:]
        fired = sc.sim.events_fired
        units = []
        for until in sc.edges:
            inside_run = True
            sc.sim.run(until=until)
            inside_run = False
            # like the harness's per-unit record: the first container
            # allocated after run() is what pays the collector debt
            units.append((until, sc.sim.events_fired))
        run_passes = list(passes)
        t0 = perf_counter()
        gc.collect()
        full_s = perf_counter() - t0
        census = Counter(type(o).__name__ for o in gc.get_objects())
        now = tracemalloc.get_traced_memory()[0]
        after = _by_line()
    finally:
        gc.callbacks.remove(on_gc)
        tracemalloc.stop()

    mb = 1 / (1024 * 1024)
    print(f"# {args.workload} seed={args.seed} quick={args.quick}: window "
          f"{sc.edges[0] - sizes.unit:.0f}..{units[-1][0]:.0f} s in "
          f"{len(units)} units, {units[-1][1] - fired} events")
    print(f"traced at window start {held * mb:8.1f} MB")
    print(f"traced at window end   {now * mb:8.1f} MB  "
          f"(growth {(now - held) * mb:+.1f} MB)")

    print(f"\n== top {args.top} lines by live bytes at window end")
    for site in sorted(after, key=after.get, reverse=True)[:args.top]:
        size, count = after[site]
        print(f"{size * mb:8.2f} MB {count:9d} blocks  {site}")
    growth = {
        site: (size - before.get(site, (0, 0))[0],
               count - before.get(site, (0, 0))[1])
        for site, (size, count) in after.items()
    }
    print(f"\n== top {args.top} lines by growth over the window")
    for site in sorted(growth, key=growth.get, reverse=True)[:args.top]:
        size, count = growth[site]
        print(f"{size * mb:+8.2f} MB {count:+9d} blocks  {site}")

    total = sum(census.values())
    print(f"\n== {total} GC-tracked objects at window end, by type")
    for name, count in census.most_common(args.top):
        print(f"{count:9d}  {name}")

    print(f"\n== collector passes during the window ({len(run_passes)})")
    for generation, seconds, inside, collected in run_passes:
        where = "inside" if inside else "outside"
        print(f"gen {generation}  {seconds * 1e3:8.1f} ms  {where} "
              f"Simulator.run  collected {collected}")
    print(f"full collection at window end: {full_s * 1e3:.1f} ms "
          f"over {total} objects")

    if args.json is not None:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "quick": args.quick,
            "traced_start": held, "traced_end": now,
            "by_line": after, "by_type": census,
        }, indent=1, sort_keys=True) + "\n")
    if args.against is not None:
        _print_deltas(json.loads(args.against.read_text()), args, now, after,
                      census)
    return 0


def _print_deltas(base: dict, args, now: int, after: dict, census: dict) -> None:
    """What each source line, each file and each type gained or lost
    against the ``--json`` file of another checkout.  Lines are matched
    by ``file:line``, so an edited file shows as lines gone and lines
    new; the per-file sums say what the edit did."""
    mb = 1 / (1024 * 1024)
    ran = (args.workload, args.seed, args.quick)
    if (base["workload"], base["seed"], base["quick"]) != ran:
        print(f"\n!! {args.against} is {base['workload']} seed="
              f"{base['seed']} quick={base['quick']}, not this run")
    print(f"\n== against {args.against}: traced at window end "
          f"{base['traced_end'] * mb:.1f} -> {now * mb:.1f} MB "
          f"({(now - base['traced_end']) * mb:+.1f} MB)")
    for title, fold in (
        ("lines", str), ("files", lambda site: site.rsplit(":", 1)[0]),
    ):
        size, blocks = Counter(), Counter()
        for table, sign in ((after, 1), (base["by_line"], -1)):
            for site, (nbytes, count) in table.items():
                size[fold(site)] += sign * nbytes
                blocks[fold(site)] += sign * count
        print(f"== top {args.top} {title} by |delta|")
        moved = sorted(filter(size.get, size), key=lambda k: -abs(size[k]))
        for key in moved[:args.top]:
            print(f"{size[key] * mb:+8.2f} MB {blocks[key]:+9d} blocks  {key}")
    types = Counter(census)
    types.subtract(base["by_type"])
    print(f"== top {args.top} GC-tracked types by |delta|")
    moved = sorted(filter(types.get, types), key=lambda n: -abs(types[n]))
    for name in moved[:args.top]:
        print(f"{types[name]:+9d}  {name}")


if __name__ == "__main__":
    sys.exit(main())
