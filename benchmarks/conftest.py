"""Benchmark harness configuration.

Every file here is a performance benchmark whose numbers ``make bench``
folds into BENCH_kernel.json; the paper's findings are the claim table
(``repro.analysis.claims``), which tier-1 checks.  Simulation runs are
seconds-long and deterministic, so a single round per benchmark is
meaningful.
"""

import os
import resource
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def _memory_extra_info(request):
    """Attach memory telemetry to every benchmark's ``extra_info`` so
    ``scripts/bench_trajectory.py record`` can fold it into the
    committed trajectory alongside the timings.

    Peak RSS (``ru_maxrss``, KiB on Linux) is free to read and always
    recorded.  tracemalloc allocation tracking costs several times the
    workload's runtime, so it only runs when ``REPRO_BENCH_TRACEMALLOC=1``
    (the ``make profile`` path) — never during a timing-quality
    ``make bench``."""
    trace = os.environ.get("REPRO_BENCH_TRACEMALLOC") == "1"
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    if trace:
        tracemalloc.start()
    yield
    try:
        if benchmark is None:
            return
        info = benchmark.extra_info
        info["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
        if trace:
            _, peak = tracemalloc.get_traced_memory()
            snapshot = tracemalloc.take_snapshot()
            info["tracemalloc_peak_kb"] = peak // 1024
            info["tracemalloc_alloc_blocks"] = sum(
                stat.count for stat in snapshot.statistics("filename")
            )
    finally:
        if trace:
            tracemalloc.stop()


@pytest.fixture
def run_once(benchmark):
    """Run ``fn`` exactly once under pytest-benchmark timing and
    return its result."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
