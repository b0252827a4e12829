"""The oracle battery's verdicts, and what each execution collects.

The three comparison oracles are exercised with the execution function
replaced by a fake that plants exactly one divergence, so each test
pins one failure signature (and that no other oracle fires with it)
without simulating anything.  The accounting tests below them run real
executions and count the instruments: coverage hubs, workload trace
recorders, kernel trace hooks."""

import math

import pytest

from repro.fuzz import SEED_CASES, check_case, run_case
from repro.fuzz import runner
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.runner import (
    COVERAGE,
    DIGEST,
    EVERYTHING,
    ORACLES,
    WORKLOAD,
    Failure,
    RunResult,
)
from repro.obs.runtime import ObsSession
from repro.workload.trace import TraceOp

PLAIN, CRASH, CHURN, LOADED = SEED_CASES


# ---------------------------------------------------------------------------
# verdicts, on planted divergences
# ---------------------------------------------------------------------------

def _trace(mark="", time=1.5):
    return [(0.5, "rdv.tick"), (time, "net.deliver" + mark)]


def _ops(mark=""):
    return [TraceOp(t=61.0, client="edge-0", op="query", item="adv-1" + mark)]


def _plant(monkeypatch, diverges=lambda **call: False, midpoint=("", ""),
           trace=_trace):
    """Replace both execution functions: every execution agrees on
    every compared field except the ones ``diverges(**call)`` selects,
    whose results come back perturbed (``trace(mark)`` builds the kernel
    trace; ``midpoint`` marks the continued and the restored one)."""
    calls = []

    def fake_run_case(case, store=None, reads=EVERYTHING, replay_ops=None):
        call = dict(reads=tuple(reads), replay=replay_ops is not None)
        calls.append(call)
        mark = "!" if diverges(**call) else ""
        return RunResult(
            invariant_summary={}, violations=(),
            trace=trace(mark) if DIGEST in reads else None,
            coverage=("metric:counters.x",) if COVERAGE in reads else (),
            slo_json="{}" + mark if WORKLOAD in reads else None,
            trace_ops=_ops(mark) if WORKLOAD in reads else None,
        )

    def fake_midpoint(case, store=None):
        if case.workload is not None or runner.has_churn(case):
            return None, None, "not snapshottable"
        return (*map(trace, midpoint), None)

    monkeypatch.setattr(runner, "run_case", fake_run_case)
    monkeypatch.setattr(
        runner, "run_case_with_midpoint_snapshot", fake_midpoint
    )
    return calls


def _signatures(report):
    return [f.signature for f in report.failures]


def test_agreeing_executions_report_nothing(monkeypatch):
    _plant(monkeypatch)
    assert _signatures(check_case(PLAIN)) == []
    assert _signatures(check_case(LOADED)) == []


def test_one_ulp_in_one_event_time_is_snapshot_invisibility(monkeypatch):
    """Traces compare as values: one entry's time one ulp later fails."""
    def trace(mark):
        return _trace(time=math.nextafter(1.5, 2.0) if mark else 1.5)

    _plant(monkeypatch, midpoint=("!", ""), trace=trace)
    report = check_case(PLAIN)
    assert _signatures(report) == ["snapshot-invisibility"]
    # the detail line names both traces by their digest prefixes
    base = RunResult({}, (), trace=trace(""))
    continued = RunResult({}, (), trace=trace("!"))
    assert report.failures[0].detail == (
        "taking a mid-run snapshot perturbed the run: "
        f"{continued.digest[:12]} vs {base.digest[:12]}"
    )


def test_continued_digest_is_snapshot_invisibility(monkeypatch):
    _plant(monkeypatch, midpoint=("!", ""))
    assert _signatures(check_case(PLAIN)) == ["snapshot-invisibility"]


def test_restored_digest_is_snapshot_restore(monkeypatch):
    _plant(monkeypatch, midpoint=("", "!"))
    assert _signatures(check_case(PLAIN)) == ["snapshot-restore"]


def test_replayed_workload_is_replay_identity(monkeypatch):
    _plant(monkeypatch, lambda replay, **_: replay)
    assert _signatures(check_case(LOADED)) == ["replay-identity"]


def test_invariant_kinds_become_signatures(monkeypatch):
    def violated(case, **kwargs):
        return RunResult(
            invariant_summary={"peerview.consistency": 2},
            violations=("t=1.0s rdv-1: peerview.consistency — x",),
        )

    monkeypatch.setattr(runner, "run_case", violated)
    report = check_case(PLAIN, oracles=("invariants",))
    assert _signatures(report) == ["invariants:peerview.consistency"]
    assert "rdv-1" in report.failures[0].detail


def test_inapplicable_oracles_are_skipped_not_passed(monkeypatch):
    _plant(monkeypatch)
    report = check_case(PLAIN, oracles=("replay",))
    assert report.skipped == ("replay: case has no workload",)
    report = check_case(CHURN, oracles=("snapshot",))
    assert len(report.skipped) == 1
    assert report.skipped[0].startswith("snapshot: ")
    assert check_case(LOADED).skipped == ("snapshot: not snapshottable",)


def test_unknown_oracle_is_refused():
    with pytest.raises(ValueError):
        check_case(PLAIN, oracles=("nonsense",))


def test_each_execution_is_asked_only_for_what_is_compared(monkeypatch):
    calls = _plant(monkeypatch)
    check_case(LOADED)
    # a full battery on a workload case is the base and the replay
    assert calls == [
        dict(reads=(DIGEST, COVERAGE, WORKLOAD), replay=False),
        dict(reads=(WORKLOAD,), replay=True),
    ]
    del calls[:]
    # a probe's base collects what the one oracle compares, no more
    check_case(LOADED, oracles=("invariants",), coverage=False)
    assert [c["reads"] for c in calls] == [()]
    del calls[:]
    check_case(PLAIN, oracles=("snapshot",), coverage=False)
    assert [c["reads"] for c in calls] == [(DIGEST,)]
    del calls[:]
    check_case(LOADED, oracles=("replay",), coverage=False)
    assert [c["reads"] for c in calls] == [(WORKLOAD,), (WORKLOAD,)]
    del calls[:]
    check_case(LOADED, oracles=("invariants",))
    assert [c["reads"] for c in calls] == [(DIGEST, COVERAGE)]
    del calls[:]
    check_case(PLAIN)
    assert calls[0]["reads"] == (DIGEST, COVERAGE)


# ---------------------------------------------------------------------------
# instruments, on real executions
# ---------------------------------------------------------------------------

@pytest.fixture
def instruments(monkeypatch):
    """Counts hub adoptions and workload trace recorders."""
    seen = {"hubs": 0, "workload_traces": 0}
    adopt = ObsSession.adopt
    recorder = runner.WorkloadTraceRecorder

    def counting_adopt(self, network):
        seen["hubs"] += 1
        return adopt(self, network)

    def counting_recorder():
        seen["workload_traces"] += 1
        return recorder()

    monkeypatch.setattr(ObsSession, "adopt", counting_adopt)
    monkeypatch.setattr(runner, "WorkloadTraceRecorder", counting_recorder)
    return seen


def test_full_battery_opens_one_hub_and_two_workload_traces(instruments):
    report = check_case(LOADED)
    assert report.failures == []
    assert report.base.coverage
    # base and replay ran; only the base counted keys, both traced
    # the workload
    assert instruments == {"hubs": 1, "workload_traces": 2}


def test_shrink_probe_opens_no_hub(instruments):
    for oracle, case in (("invariants", CRASH), ("replay", LOADED)):
        probe = FuzzEngine()._still_fails(
            Failure(oracle, f"{oracle}:planted", "")
        )
        assert probe(case) is False
    # the replay probe traces the workload of its base and its replay
    assert instruments == {"hubs": 0, "workload_traces": 2}


def test_hubless_execution_hides_from_an_ambient_session(instruments):
    """The campaign runner wraps every task in a session; an execution
    that reads no coverage must not hand that one its network."""
    from repro.obs.runtime import activate, deactivate

    ambient = activate(ObsSession(metrics=True))
    try:
        run_case(CRASH, reads=(DIGEST,))
    finally:
        deactivate(ambient)
    assert instruments["hubs"] == 0
    assert ambient.hubs == []


@pytest.fixture
def recorders(monkeypatch):
    """Every execution's (simulator, kernel trace recorder), in order."""
    seen = []
    warm_start = runner.warm_start

    def spying(store, key, build):
        network, extra = warm_start(store, key, build)
        seen.append((network.sim, extra["recorder"]))
        return network, extra

    monkeypatch.setattr(runner, "warm_start", spying)
    return seen


def test_only_executions_that_read_the_trace_keep_recording(recorders):
    report = check_case(LOADED)
    assert report.failures == []
    hooked = [rec._on_event in sim._fire_hooks for sim, rec in recorders]
    # base, replay
    assert hooked == [True, False]
    base, replay = (rec for _, rec in recorders)
    assert 0 < len(replay) < len(base)
    assert report.base.trace is base.entries


def test_result_digests_are_the_recorders_digests(recorders, monkeypatch):
    workload_recorders = []
    recorder = runner.WorkloadTraceRecorder

    def keeping_recorder():
        workload_recorders.append(recorder())
        return workload_recorders[-1]

    monkeypatch.setattr(runner, "WorkloadTraceRecorder", keeping_recorder)
    result = run_case(LOADED)
    ((_, kernel),) = recorders
    (workload,) = workload_recorders
    assert result.digest == kernel.digest()
    assert result.workload_digest == workload.digest()


def test_run_case_defaults_fill_every_field():
    result = run_case(LOADED)
    assert len(result.digest) == 64
    assert "metric:counters.endpoint.send" in result.coverage
    assert result.slo_json.startswith("{")
    assert len(result.workload_digest) == 64
    assert result.trace_ops
    assert result.invariant_summary == {}


def test_reads_selects_fields_and_never_changes_them():
    full = run_case(LOADED)
    digest_only = run_case(LOADED, reads=(DIGEST,))
    assert digest_only.digest == full.digest
    assert digest_only.coverage == ()
    assert digest_only.slo_json is None
    assert digest_only.workload_digest is None
    assert digest_only.trace_ops is None
    workload_only = run_case(LOADED, reads=(WORKLOAD,))
    assert workload_only.digest is None
    assert workload_only.slo_json == full.slo_json
    assert workload_only.workload_digest == full.workload_digest


def test_oracle_catalogue_is_unchanged():
    assert ORACLES == ("invariants", "snapshot", "replay")
