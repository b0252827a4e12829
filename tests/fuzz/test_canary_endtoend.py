"""The fuzzer against a planted bug, end to end: on the
``peerview.expire-leak`` mutant (``scripts/mutants.py``, applied to a
copy of the source by the session's ``expire_leak`` fixture) a
fixed-budget fuzz run *finds* the bug and *shrinks* the reproducer to
at most 8 actions, deterministically; on the product the same run
finds nothing."""

from repro.fuzz.engine import FuzzEngine

#: generous relative to reality (the bug surfaces at seed-case #2)
FIND_BUDGET = 8


def test_fuzzer_finds_and_shrinks_canary(expire_leak):
    failures = expire_leak["failures"]
    assert failures, "the mutant's bug was not found within the budget"
    assert {e["signature"] for e in failures} == {
        "invariants:peerview.consistency", "invariants:peerview.total-order",
    }
    for entry, fired in zip(failures, expire_leak["reproduced"]):
        assert entry["kind"] == "failure"
        assert len(entry["case"]["actions"]) <= 8
        # the shrunk reproducer still fires its signature directly
        assert entry["signature"] in fired


def test_canary_find_is_deterministic(expire_leak):
    first, second = expire_leak["digests"]
    assert first == second


def test_no_failures_without_canary():
    report = FuzzEngine(seed=0).run(FIND_BUDGET)
    assert report.failures == []


def test_canary_only_fires_on_affected_keys(expire_leak):
    # seed case 0 (fault-free, long expiration) never expires entries,
    # so the mutated branch stays cold and the case remains green
    assert expire_leak["seed_case_0"] == []
