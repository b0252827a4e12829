#!/usr/bin/env python
"""CI acceptance harness for the repro.workload load subsystem.

Runs a small (40-rendezvous) open-loop load and asserts the headline
guarantees end to end:

1. **SLO sanity** — the run sustains its offered load: every request
   resolves, quantiles are reported, timeouts stay rare on a static
   overlay.
2. **Record/replay oracle** — re-driving the recorded trace on a fresh
   deployment reproduces trace bytes and SLO snapshot exactly.
3. **Sweep parallelism** — ``jxta-repro sweep load --jobs 1`` and
   ``--jobs 2`` write byte-identical aggregates.

Exit code 0 on success; any violated guarantee raises.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

R = 40
SEED = 1


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spec():
    from repro.experiments.load_exp import ci_spec

    return ci_spec(duration=30.0, queriers=8, publishers=2,
                   catalog={"popularity": "zipf", "size": 150, "skew": 1.0})


def _snap_sha(run) -> str:
    blob = json.dumps(run.snapshot(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _run_one():
    """One recorded load run (in-process)."""
    from repro.experiments.load_exp import run_load

    return run_load(_spec(), r=R, seed=SEED, record=True)


def check_slo(run) -> None:
    from repro.workload.slo import render_slo

    snap = run.snapshot()
    query = snap["load.query"]
    assert query["requests"] > 150, f"too little load: {query['requests']}"
    assert query["requests"] == (
        query["ok"] + query["timeout"] + query["failure"]
    ), "open-loop conservation violated"
    assert "p50_ms" in query and "p99_ms" in query, "quantiles missing"
    assert query["timeout_rate"] < 0.05, (
        f"timeout rate {query['timeout_rate']:.2%} on a static overlay"
    )
    assert query["failure_rate"] == 0.0
    print(render_slo(snap))
    print(f"load-smoke: SLO ok — {query['requests']} queries, "
          f"p99 {query['p99_ms']:.1f} ms, "
          f"timeouts {query['timeout_rate']:.2%}")


def check_replay(original) -> None:
    from repro.experiments.load_exp import replay_load
    from repro.workload.trace import load_trace_lines, replay_ops

    print(f"load-smoke: trace {original.digest()[:12]}… "
          f"slo {_snap_sha(original)[:12]}…")
    with tempfile.TemporaryDirectory() as tmp:
        path = original.recorder.write(Path(tmp) / "trace.jsonl")
        ops = replay_ops(load_trace_lines(path))
    replayed = replay_load(_spec(), r=R, ops=ops, seed=SEED)
    assert replayed.digest() == original.digest(), (
        "replay trace bytes diverged"
    )
    assert _snap_sha(replayed) == _snap_sha(original), (
        "replay SLO snapshot diverged"
    )
    print("load-smoke: replay reproduces the original run byte-for-byte")


def check_sweep_parallelism() -> None:
    aggregates = {}
    with tempfile.TemporaryDirectory() as tmp:
        for jobs in (1, 2):
            out = Path(tmp) / f"jobs{jobs}"
            subprocess.run(
                [sys.executable, "-m", "repro.experiments.cli", "sweep",
                 "load", "--jobs", str(jobs), "--out", str(out), "--quiet"],
                env=_env(), check=True, cwd=REPO,
            )
            aggregates[jobs] = (out / "load-aggregate.json").read_bytes()
    assert aggregates[1] == aggregates[2], (
        "sweep load aggregates differ between --jobs 1 and --jobs 2"
    )
    print("load-smoke: sweep --jobs 1 == --jobs 2 byte-identical")


def main() -> int:
    run = _run_one()
    check_slo(run)
    check_replay(run)
    check_sweep_parallelism()
    print("load-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
