#!/usr/bin/env python
"""CI acceptance harness for the repro.fuzz subsystem (~2 minutes).

Asserts the headline guarantees end to end:

1. **Canary loop** — with the planted bug armed
   (``SimOptions(canaries=CANARIES)``) a fixed-budget fuzz run finds
   it, classifies it as canary-dependent and shrinks the reproducer to
   ≤ 8 actions.
2. **Corpus replay** — the committed ``tests/fuzz_corpus/`` entries
   replay green (via the tier-1 replayer suite).
3. **Determinism** — ``jxta-repro fuzz --seed 0`` prints the same
   digest across ``--jobs 1`` vs ``--jobs 2``.

Next to what it asserts it prints what the budget cost — genomes per
second of every run, and the executions the canary loop took — so a
change in executions per genome shows in the CI log (nothing is
asserted on either: ``benchmarks/test_bench_fuzz.py`` has the floor).

Exit code 0 on success; any violated guarantee raises.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

SEED = 0
BUDGET = 24
BATCH_SIZE = 8


def _env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_CANARY", None)
    env["PYTHONPATH"] = f"{REPO / 'src'}" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@contextmanager
def counted_executions():
    """Count the simulations the oracle battery starts: one per
    ``run_case``, two per snapshot probe that was not skipped."""
    from repro.fuzz import runner

    counted = {"executions": 0}
    run_case = runner.run_case
    midpoint = runner.run_case_with_midpoint_snapshot

    def counting_run_case(*args, **kwargs):
        counted["executions"] += 1
        return run_case(*args, **kwargs)

    def counting_midpoint(*args, **kwargs):
        continued, restored, skip = midpoint(*args, **kwargs)
        if skip is None:
            counted["executions"] += 2
        return continued, restored, skip

    runner.run_case = counting_run_case
    runner.run_case_with_midpoint_snapshot = counting_midpoint
    try:
        yield counted
    finally:
        runner.run_case = run_case
        runner.run_case_with_midpoint_snapshot = midpoint


def check_canary_loop() -> None:
    from repro.fuzz.engine import FuzzEngine
    from repro.sim.options import CANARIES, SimOptions

    armed = SimOptions(canaries=CANARIES)
    t0 = time.perf_counter()
    with counted_executions() as counted:
        report = FuzzEngine(seed=SEED, options=armed).run(8)
    wall = time.perf_counter() - t0
    failures = report.failures
    assert failures, "canary bug not found within the smoke budget"
    for entry in failures:
        assert entry.requires_canary, (
            f"{entry.signature} misclassified as a real failure"
        )
        assert len(entry.case.actions) <= 8, (
            f"{entry.signature} reproducer not shrunk: "
            f"{len(entry.case.actions)} actions"
        )
    print(
        f"fuzz-smoke: canary found and shrunk "
        f"({len(failures)} signature(s), "
        f"max {max(len(e.case.actions) for e in failures)} action(s), "
        f"{report.shrink_probes} shrink probe(s)); "
        f"{report.executed} genomes, {counted['executions']} executions, "
        f"{report.executed / wall:.1f} genomes/s"
    )


def check_corpus_replay() -> None:
    subprocess.run(
        [sys.executable, "-m", "pytest", "tests/fuzz", "-q",
         "--no-header", "-p", "no:cacheprovider"],
        env=_env(), check=True, cwd=REPO,
    )
    print("fuzz-smoke: corpus replays green")


def _fuzz_digest(jobs: int) -> tuple:
    """``(digest, wall seconds)`` of one ``jxta-repro fuzz`` process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.fuzz.cli",
         "--seed", str(SEED), "--budget", str(BUDGET),
         "--batch-size", str(BATCH_SIZE), "--jobs", str(jobs),
         "--quiet"],
        env=_env(), check=True, cwd=REPO,
        capture_output=True, text=True,
    )
    match = re.search(r"# digest: ([0-9a-f]{64})", proc.stdout)
    assert match, f"no digest in output:\n{proc.stdout}"
    return match.group(1), time.perf_counter() - t0


def check_determinism() -> None:
    digests = {}
    for jobs in (1, 2):
        digest, wall = _fuzz_digest(jobs)
        digests[jobs] = digest
        print(f"fuzz-smoke: jobs={jobs} digest {digest[:16]}…  {BUDGET} "
              f"genomes in {wall:.1f} s ({BUDGET / wall:.1f} genomes/s)")
    assert len(set(digests.values())) == 1, (
        f"fuzz digests diverge across jobs: {digests}"
    )
    print("fuzz-smoke: --jobs 1 == --jobs 2")


def main() -> int:
    check_canary_loop()
    check_corpus_replay()
    check_determinism()
    print("fuzz-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
