"""``python -m bench run | compare | noise``.

``run`` executes every workload in fresh subprocesses, one at a time
and interleaved round-robin so that drift of the box hits all of them
alike, gates on correctness, and writes one JSON.  ``compare`` turns
two sets of such files into one verdict per (workload, end-to-end
metric).  ``noise`` is the A/A gate: two interleaved sets of runs of
one checkout must compare as unchanged everywhere.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from bench.catalog import (
    BY_NAME, END_TO_END, RUN_SECONDS, SIM_END_TO_END, workload_names,
)
from bench.run import ROOT, env_refusal

DEFAULT_OUT = ".benchmarks/bench/result.json"
#: a repeat whose calibration readings (before, after) differ by more
#: than this is re-run once, and flagged noisy if it still does
DRIFT_LIMIT = 0.10
RUN_TIMEOUT_S = 900


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {
        "median": median, "q1": q1, "q3": q3, "min": min(values),
        "n": len(values), "samples": list(values),
    }


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _one_run(
    workload: str, seed: int, trace: int, quick: bool,
    spans_out: Optional[Path] = None,
) -> Tuple[dict, dict]:
    """One subprocess; returns (driver result, detail)."""
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def _drifted(detail: dict) -> bool:
    before, after = detail["calib_s"]
    return abs(after - before) / min(before, after) > DRIFT_LIMIT


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(
    seed: int = 1, repeats: int = 3, quick: bool = False,
    workloads: Optional[Sequence[str]] = None, out: Optional[Path] = None,
    log=print,
) -> Tuple[dict, List[str]]:
    """Run everything; returns (result document, gate violations)."""
    names = list(workloads) if workloads else workload_names()
    out_dir = (out.parent if out is not None else ROOT / ".benchmarks" / "bench")
    out_dir.mkdir(parents=True, exist_ok=True)
    violations: List[str] = []
    samples: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    details: Dict[str, List[dict]] = {n: [] for n in names}
    results: Dict[str, List[dict]] = {n: [] for n in names}
    noisy: Dict[str, List[int]] = {n: [] for n in names}

    for repeat in range(repeats):
        for name in names:
            result, detail = _one_run(name, seed, 0, quick)
            if _drifted(detail):
                log(f"  {name} repeat {repeat}: box drifted "
                    f"({detail['calib_s'][0]:.3f} -> {detail['calib_s'][1]:.3f} s "
                    "calibration), re-running")
                result, detail = _one_run(name, seed, 0, quick)
                if _drifted(detail):
                    noisy[name].append(repeat)
            results[name].append(result)
            details[name].append(detail)
            for metric, entry in result["metrics"].items():
                samples[name].setdefault(metric, []).append(entry["value"])
            log(f"  {name} repeat {repeat}: wall_s "
                f"{result['metrics']['wall_s']['value']:.3f}"
                + (" (noisy)" if repeat in noisy[name] else ""))

    document = {
        "schema": 1,
        "env": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": _commit(), "seed": seed, "repeats": repeats,
            "quick": quick, "run_seconds": RUN_SECONDS,
        },
        "workloads": {},
    }
    for name in names:
        spans = out_dir / f"spans-{name}.npz"
        traced, traced_detail = _one_run(name, seed, 1, quick, spans)
        log(f"  {name} traced: {traced_detail['spans']} spans -> {spans}")
        runs = details[name] + [traced_detail]
        for detail, result in zip(runs, results[name] + [traced]):
            for violation in detail["violations"]:
                violations.append(f"{name}: {violation}")
            if not result["correct"] and not detail["violations"]:
                violations.append(f"{name}: run reported incorrect output")
        digests = {d["sim_digest"] for d in runs}
        if len(digests) != 1:
            violations.append(
                f"{name}: sim_digest differs between repeats or between the "
                f"traced and untraced runs: {sorted(digests)}"
            )
        if any(d["sim"] != runs[0]["sim"] for d in runs):
            violations.append(f"{name}: sim metrics differ between runs")
        document["workloads"][name] = {
            "sim_digest": runs[0]["sim_digest"],
            "attempted": results[name][0]["attempted"],
            "failed": results[name][0]["failed"],
            "latency_samples": runs[0]["latency_samples"],
            "noisy_repeats": noisy[name],
            "calib_s": [d["calib_s"] for d in details[name]],
            "end_to_end": {
                m.name: dict(
                    describe(samples[name][m.name]), unit=m.unit,
                    better=m.better, kind=m.kind, bound=m.bound,
                )
                for m in END_TO_END
            },
            "sim": runs[0]["sim"],
            "per_layer": {
                metric: dict(
                    value=entry["value"], unit=entry["unit"],
                    kind=BY_NAME[metric].kind,
                )
                for metric, entry in traced["metrics"].items()
            },
        }
    return document, violations


def render_result(document: dict) -> str:
    lines = []
    env = document["env"]
    lines.append(
        f"# commit {env['commit'][:12]} seed {env['seed']} repeats "
        f"{env['repeats']} nproc {env['nproc']} python {env['python']}"
        + (" QUICK" if env["quick"] else "")
    )
    for name, entry in document["workloads"].items():
        lines.append(f"\n== {name}  sim_digest {entry['sim_digest'][:16]}  "
                     f"attempted {entry['attempted']} failed {entry['failed']}")
        lines.append("  end-to-end (host; median [q1, q3] min, n)")
        for metric, e in entry["end_to_end"].items():
            lines.append(
                f"    {metric:14s} {e['median']:12.5g} [{e['q1']:.5g}, "
                f"{e['q3']:.5g}] min {e['min']:.5g} n={e['n']} {e['unit']}"
            )
        lines.append("  end-to-end (sim; exact for the seed)")
        for m in SIM_END_TO_END:
            value = entry["sim"][m.name]
            note = ""
            if m.name == "workload.sim_latency_p99_ms" and value:
                note = f"  ({entry['latency_samples']} samples)"
            if m.name == "rendezvous.paper_error_pct" and name != "peerview-580":
                note = "  (unvalidated: no paper reference at this load shape)"
            lines.append(f"    {m.name:34s} {value:12.5g} {m.unit}{note}")
        lines.append("  per layer (traced run)")
        for metric, e in entry["per_layer"].items():
            if metric in entry["sim"]:
                continue
            lines.append(
                f"    {metric:38s} {e['value']:12.5g} {e['unit']:8s} {e['kind']}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def load_side(paths: Iterable[str]) -> dict:
    """Pool several result files of one commit: end-to-end samples are
    concatenated; sim values must agree between the files."""
    pooled: dict = {}
    for path in paths:
        with open(path) as fh:
            document = json.load(fh)
        for name, entry in document["workloads"].items():
            mine = pooled.setdefault(
                name, {"samples": {}, "sim": entry["sim"],
                       "sim_digest": entry["sim_digest"]},
            )
            if (mine["sim"], mine["sim_digest"]) != (
                entry["sim"], entry["sim_digest"]
            ):
                raise ValueError(
                    f"{path}: sim results for {name} differ from the other "
                    "files of the same side (different seed or commit?)"
                )
            for metric, e in entry["end_to_end"].items():
                mine["samples"].setdefault(metric, []).extend(e["samples"])
    return pooled


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float,
) -> Tuple[str, float]:
    """(verdict, share by which the new median is worse than the base's).

    *regressed*: the median is worse by more than the bound.
    *unresolved*: the run-to-run spread of either side is wider than the
    bound and the two sides overlap, so the bound cannot be checked.
    *improved*: better by more than a third of the bound and more than
    the base's own spread, winning at least nine tenths of all pairs.
    """
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / bmed
    spread = max(bq3 - bq1, nq3 - nq1) / bmed
    pairs = [(b, n) for b in base for n in new if b != n]
    wins = (
        sum(1 for b, n in pairs if sign * (n - b) < 0) / len(pairs)
        if pairs else 0.5
    )
    if spread > bound and 0.0 < wins < 1.0:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if -worse_by > max(bound / 3.0, (bq3 - bq1) / bmed) and wins >= 0.9:
        return "improved", worse_by
    return "unchanged", worse_by


def compare(base: dict, new: dict) -> Tuple[List[dict], List[str]]:
    """Rows for every (workload, end-to-end metric) both sides have,
    and the workloads whose sim results differ."""
    rows: List[dict] = []
    sim_differs: List[str] = []
    for name in base:
        if name not in new:
            continue
        if (base[name]["sim"], base[name]["sim_digest"]) != (
            new[name]["sim"], new[name]["sim_digest"]
        ):
            sim_differs.append(name)
        for m in END_TO_END:
            b = base[name]["samples"].get(m.name)
            n = new[name]["samples"].get(m.name)
            if not b or not n:
                continue
            what, worse_by = verdict(b, n, m.better, m.bound)
            rows.append({
                "workload": name, "metric": m.name, "unit": m.unit,
                "base": quartiles(b), "new": quartiles(n),
                "ratio": quartiles(n)[1] / quartiles(b)[1],
                "worse_by": worse_by, "bound": m.bound, "verdict": what,
            })
    return rows, sim_differs


def render_compare(rows: List[dict], sim_differs: List[str], base: dict, new: dict) -> str:
    def spread(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    lines = [
        f"{'workload':15s} {'metric':12s} {'base median [q1, q3]':30s} "
        f"{'new median [q1, q3]':30s} {'new/base':>8s}  {'bound':>5s}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:15s} {row['metric']:12s} "
            f"{spread(row['base']):30s} {spread(row['new']):30s} "
            f"{row['ratio']:7.3f}x  {100 * row['bound']:4.0f}%  "
            f"{row['verdict']} (base {row['base'][1]:.5g} {row['unit']})"
        )
    for name in base:
        if name in new:
            state = "DIFFER" if name in sim_differs else "identical"
            lines.append(
                f"{name:15s} sim metrics + sim_digest: {state} "
                f"({base[name]['sim_digest'][:12]} vs "
                f"{new[name]['sim_digest'][:12]})"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _suite(args, repeats: int, out: Path) -> Tuple[dict, List[str]]:
    return run_suite(
        seed=args.seed, repeats=repeats, quick=args.quick,
        workloads=args.workloads.split(",") if args.workloads else None,
        out=out,
    )


def cmd_run(args) -> int:
    refusal = env_refusal()
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    out = Path(args.out)
    document, violations = _suite(args, args.repeats, out)
    print(render_result(document))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True))
    print(f"\nwrote {out}")
    for violation in violations:
        print(f"VIOLATION: {violation}")
    return 1 if violations else 0


def cmd_compare(args) -> int:
    base = load_side(args.base.split(","))
    new = load_side(args.new.split(","))
    rows, sim_differs = compare(base, new)
    print(render_compare(rows, sim_differs, base, new))
    return 0


def _every_other(document: dict, offset: int) -> dict:
    """The result document restricted to repeats offset, offset+2, ..."""
    side = json.loads(json.dumps(document))
    side["env"]["repeats"] = len(range(offset, document["env"]["repeats"], 2))
    for entry in side["workloads"].values():
        for e in entry["end_to_end"].values():
            e.update(describe(e["samples"][offset::2]))
    return side


def cmd_noise(args) -> int:
    """One suite of 2 x repeats, its even repeats against its odd ones:
    two full sets of runs of one commit, interleaved so that drift of
    the box hits both alike."""
    refusal = env_refusal()
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    document, violations = _suite(
        args, 2 * args.repeats, out_dir / "noise-a.json")
    failures = list(violations)
    sides = []
    for offset, side in enumerate("ab"):
        out = out_dir / f"noise-{side}.json"
        out.write_text(json.dumps(
            _every_other(document, offset), indent=1, sort_keys=True))
        sides.append(load_side([str(out)]))
    rows, sim_differs = compare(*sides)
    print(render_compare(rows, sim_differs, *sides))
    failures += [
        f"{row['workload']} {row['metric']}: {row['verdict']} "
        f"({100 * row['worse_by']:+.1f}% vs bound {100 * row['bound']:.0f}%)"
        for row in rows if row["verdict"] != "unchanged"
    ]
    failures += [f"{name}: sim results differ between the two sides"
                 for name in sim_differs]
    for failure in failures:
        print(f"NOISE GATE: {failure}")
    if not failures:
        print("noise gate: the same commit compares as unchanged everywhere")
    return 1 if failures else 0
