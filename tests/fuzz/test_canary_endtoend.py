"""The satellite acceptance test: with the planted canary armed, a
fixed-budget fuzz run *finds* the bug, *shrinks* the reproducer to at
most 8 actions, and classifies it as canary-dependent — pinning the
whole find→shrink→corpus loop end to end.  The canary is armed by the
options value the engine runs under, never by the environment."""

from repro.fuzz import FuzzCase, check_case
from repro.fuzz.engine import FuzzEngine
from repro.sim.options import CANARIES, SimOptions

#: generous relative to reality (the canary surfaces at seed-case #2)
FIND_BUDGET = 8

ARMED = SimOptions(canaries=CANARIES)
DISARMED = SimOptions()


def test_fuzzer_finds_and_shrinks_canary():
    report = FuzzEngine(seed=0, options=ARMED).run(FIND_BUDGET)
    failures = report.failures
    assert failures, "canary not found within the fixed budget"
    assert "invariants:peerview.consistency" in {
        e.signature for e in failures
    }
    for entry in failures:
        assert entry.kind == "canary"
        assert entry.requires_canary
        assert len(entry.case.actions) <= 8
        # the shrunk reproducer still fires its signature directly
        oracle = entry.signature.split(":", 1)[0]
        probe = check_case(entry.case, oracles=(oracle,), options=ARMED)
        assert entry.signature in {f.signature for f in probe.failures}


def test_canary_find_is_deterministic():
    d1 = FuzzEngine(seed=0, options=ARMED).run(FIND_BUDGET).digest()
    d2 = FuzzEngine(seed=0, options=ARMED).run(FIND_BUDGET).digest()
    assert d1 == d2


def test_no_failures_without_canary():
    report = FuzzEngine(seed=0, options=DISARMED).run(FIND_BUDGET)
    assert report.failures == []


def test_canary_only_fires_on_affected_keys():
    # seed case 0 (fault-free, long expiration) never expires entries,
    # so the canary branch stays cold and the case remains green
    report = check_case(
        FuzzCase(seed=1, r=6, topology="chain", duration=240.0),
        oracles=("invariants",),
        options=ARMED,
    )
    assert report.failures == []
