"""What the fuzzer observes, pinned.

The constants were generated at the commit *before* executions
stopped collecting what nobody reads (PR 18), so they hold the line
that change must not move: the report digest (coverage map + corpus,
shrunk reproducers included), ``executed``, ``skipped``, and per
executed genome its key, its verdict and the size of its coverage
snapshot.  The property
below them pins what the cheaper re-executions lean on: a metrics hub
is invisible to the kernel trace."""

import pytest

from repro.fuzz import SEED_CASES, FuzzEngine, case_key, run_case
from repro.fuzz import engine as engine_mod
from repro.fuzz.runner import COVERAGE, DIGEST

SEED = 7
BUDGET = len(SEED_CASES) + 4
REPORT_DIGEST = (
    "4798e0bf436213c00bf6665bc7c42f3e36b0576396d4730d33b49abb601a0ba8"
)
SKIPPED = 9
COVERAGE_KEYS = 109
NO_WORKLOAD = "replay: case has no workload"
NO_SNAPSHOT = "snapshot: workload graphs do not pickle; churn is gated for cost"
#: per executed genome: (key, failure signatures, coverage keys, skipped)
EXECUTED = (
    ("a5350b3428300a78", (), 42, (NO_WORKLOAD,)),
    ("0ba0573bb1a75d35", (), 49, (NO_WORKLOAD,)),
    ("84f4fe667d051883", (), 77, (NO_SNAPSHOT, NO_WORKLOAD)),
    ("d435a83a7220c7a4", (), 71, (NO_SNAPSHOT,)),
    ("5ad76ccab59d2ec5", (), 49, (NO_WORKLOAD,)),
    ("da8aa98d19da5313", (), 87, (NO_WORKLOAD,)),
    ("5a072f68cb0b6d95", (), 24, (NO_WORKLOAD,)),
    ("ea38f218d8cd1b3d", (), 43, (NO_SNAPSHOT,)),
)

#: ``FuzzEngine(seed=0).run(8)`` on the ``peerview.expire-leak`` mutant
#: (the ``expire_leak`` fixture): two signatures found at seed case 2,
#: both shrunk to zero actions
MUTANT_DIGEST = (
    "24c2e7be7e3d011fa891379f4f097f594ec8cdd5d71d0eb32993559c3e7a50a5"
)
MUTANT_SHRINK_PROBES = 13


#: the report test runs the engine twice in one process, and both runs
#: must read the pinned values: the second may not lean on module-level
#: state the first left behind
@pytest.mark.parametrize("run", ("first", "again"))
def test_report_and_per_genome_verdicts_are_pinned(run, monkeypatch):
    executed = []
    real = engine_mod.check_case

    def recording(case, *args, **kwargs):
        result = real(case, *args, **kwargs)
        executed.append((
            case_key(case),
            tuple(f.signature for f in result.failures),
            len(result.base.coverage),
            result.skipped,
        ))
        return result

    monkeypatch.setattr(engine_mod, "check_case", recording)
    report = FuzzEngine(seed=SEED).run(BUDGET)
    assert report.digest() == REPORT_DIGEST
    assert report.executed == BUDGET
    assert report.skipped == SKIPPED
    assert len(report.coverage) == COVERAGE_KEYS
    assert report.failures == []
    assert tuple(executed) == EXECUTED


#: the ids name the two schedulers the mutant's values were pinned under
#: (and the name the mutant had) before the kernel became one event heap;
#: both read the session's one run of the ``peerview.expire-leak`` mutant
@pytest.mark.parametrize("repeat", ("wheel", "heap"))
def test_canary_find_and_shrink_is_pinned(repeat, expire_leak):
    assert expire_leak["digests"][0] == MUTANT_DIGEST
    assert expire_leak["shrink_probes"] == MUTANT_SHRINK_PROBES
    assert [
        (e["signature"], len(e["case"]["actions"]))
        for e in expire_leak["failures"]
    ] == [
        ("invariants:peerview.consistency", 0),
        ("invariants:peerview.total-order", 0),
    ]


@pytest.mark.parametrize(
    "case", SEED_CASES, ids=[case_key(c) for c in SEED_CASES]
)
def test_metrics_hub_is_invisible_to_the_kernel_trace(case):
    """The re-executions run without a hub and are compared with a
    base that carries one: the digests may differ only by a real bug."""
    observed = run_case(case, reads=(DIGEST, COVERAGE))
    bare = run_case(case, reads=(DIGEST,))
    assert observed.coverage and not bare.coverage
    assert observed.digest == bare.digest

