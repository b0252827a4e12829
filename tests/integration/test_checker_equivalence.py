"""Integration: the invariant checker sweeps at the same instants
whoever drives it, and a fuzz execution carries only the kernel hooks
whose output is read.

The checker is told of each peerview round by the rendezvous protocol
and of each fault action (and each churn window's end) by the scenario
engine; no kernel hook runs it.  The constants below were generated
when it still rode every fired event as a ``"done"``-phase kernel hook
that filtered by label, so they hold what moving it must not change:
per execution the number of probe rounds checked, the violation counts,
each violation's ``(time, observer, invariant)`` and the digest of the
Property (2) convergence log — for the four fuzz seed cases (the
snapshot probe's continued and restored checkers included) and for the
peerview-swap corruption of ``tests/unit/test_faults.py``.
"""

import hashlib

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.faults import (
    CorruptPeerView,
    InvariantChecker,
    Scenario,
    ScenarioEngine,
    peers_of,
)
from repro.fuzz import SEED_CASES, check_case, run_case
from repro.fuzz import runner
from repro.fuzz.genome import BOOTSTRAP_TIME
from repro.network import Network
from repro.obs.tracer import TimelineTracer
from repro.sim import MINUTES, Simulator
from repro.sim.tracing import KernelTraceRecorder

PLAIN, CRASH, CHURN, LOADED = SEED_CASES

#: per execution: (instants of the whole-overlay sweeps — one per fault
#: action or churn window end, and the closing one —, probe rounds
#: checked, violation counts, violations as (time, observer,
#: invariant), convergence events, their digest)
SEED_PINS = {
    "plain": ([240.0], 42, {}, [], 42, "b1f656a0d16306b7"),
    "crash": ([60.0, 70.0, 240.0, 300.0], 81, {}, [], 81, "ea003ab62f7ba0a9"),
    "churn": ([60.0, 60.0, 180.0, 300.0], 139, {}, [], 139, "4a39c0ff5d97fab8"),
    "loaded": ([60.0, 150.0, 246.0], 44, {}, [], 44, "94ffb1f6f2cc0d0b"),
}
#: the swap is caught by the sweep at its own instant, then by every
#: round of the corrupted peer
SWAP_PINS = (
    [360.0], 144, {"peerview.total-order": 13},
    [(360.0, "rdv-0", "peerview.total-order")] + [
        (t, "rdv-0", "peerview.total-order") for t in (
            369.6269746186432, 399.6269746186432, 429.6269746186432,
            459.6269746186432, 489.6269746186432, 519.6269746186432,
            549.6269746186432, 579.6269746186432, 609.6269746186432,
            639.6269746186432, 669.6269746186432, 699.6269746186432,
        )
    ],
    144, "d251de33848a1f41",
)


class LoggedChecker(InvariantChecker):
    """The runner's checker with a convergence log and the instant of
    every whole-overlay sweep; module level, so the snapshot probe can
    pickle it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, log=TimelineTracer(capacity=1 << 16), **kwargs)
        self.sweeps = []

    def check_all(self):
        self.sweeps.append(self.sim.now)
        return super().check_all()


def fingerprint(checker):
    events = [(e.t, e.actor, e.args["value"]) for e in checker.log.events]
    assert checker.log.dropped == 0
    return (
        checker.sweeps,
        checker.rounds_checked,
        checker.summary(),
        [(v.time, v.observer, v.invariant) for v in checker.violations],
        len(events),
        hashlib.sha256(repr(events).encode()).hexdigest()[:16],
    )


@pytest.fixture
def checkers(monkeypatch):
    """Every checker an execution builds or restores, in order."""
    seen = []
    restore = runner.restore_network

    def logged(*args, **kwargs):
        seen.append(LoggedChecker(*args, **kwargs))
        return seen[-1]

    def restoring(blob):
        network, extra = restore(blob)
        seen.append(extra["checker"])
        return network, extra

    monkeypatch.setattr(runner, "InvariantChecker", logged)
    monkeypatch.setattr(runner, "restore_network", restoring)
    return seen


@pytest.mark.parametrize(
    "name, case", zip(("plain", "crash", "churn", "loaded"), SEED_CASES)
)
def test_seed_case_sweeps_are_pinned(checkers, name, case):
    # whatever the execution reads, its checker sees the same rounds
    run_case(case)
    run_case(case, reads=())
    assert [fingerprint(c) for c in checkers] == [SEED_PINS[name]] * 2


@pytest.mark.parametrize("name, case", (("plain", PLAIN), ("crash", CRASH)))
def test_snapshot_probe_checkers_sweep_the_base_rounds(checkers, name, case):
    continued, restored, skip = runner.run_case_with_midpoint_snapshot(case)
    assert skip is None
    # the restored checker keeps sweeping through the pickled slots
    assert [fingerprint(c) for c in checkers] == [SEED_PINS[name]] * 2


def test_corruption_sweeps_are_pinned():
    sim = Simulator(seed=2)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=6, topology="chain"),
    )
    scenario = Scenario(
        name="corrupt",
        actions=(CorruptPeerView(at=6 * MINUTES, peer="rdv-0", mode="swap"),),
    )
    engine = ScenarioEngine(sim, network, peers_of(overlay), scenario)
    checker = LoggedChecker(sim, overlay.rendezvous, engine=engine)
    overlay.start()
    engine.start()
    sim.run(until=12 * MINUTES)
    assert fingerprint(checker) == SWAP_PINS


# ---------------------------------------------------------------------------
# kernel hooks after the bootstrap prefix
# ---------------------------------------------------------------------------

@pytest.fixture
def hooks(monkeypatch):
    """Per ``Simulator.run`` past the bootstrap prefix: whether the
    kernel takes its hook path, and the fire and done hooks' owners;
    plus the phases of every hook registration."""
    runs, added = [], []
    run, add = Simulator.run, Simulator.add_trace_hook

    def spying_run(self, until=None):
        if until is not None and until > BOOTSTRAP_TIME:
            runs.append((
                self._hooks_active,
                [type(h.__self__) for h in self._fire_hooks],
                list(self._done_hooks),
            ))
        return run(self, until)

    def spying_add(self, hook, phases=("fire",)):
        added.append(tuple(phases))
        return add(self, hook, phases)

    monkeypatch.setattr(Simulator, "run", spying_run)
    monkeypatch.setattr(Simulator, "add_trace_hook", spying_add)
    return runs, added


def test_workload_executions_run_without_hooks(hooks):
    runs, added = hooks
    report = check_case(LOADED)
    assert report.failures == []
    assert report.base.trace is None
    # base, replay
    assert runs == [(False, [], [])] * 2
    assert all(phases == ("fire",) for phases in added)


def test_plain_executions_keep_only_the_recorder(hooks):
    runs, added = hooks
    report = check_case(PLAIN)
    assert report.failures == []
    assert report.base.trace
    # base; continued to mid-run, then on; restored
    assert runs == [(True, [KernelTraceRecorder], [])] * 4
    assert all(phases == ("fire",) for phases in added)


def test_an_occupied_slot_refuses_a_second_checker():
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=3, topology="chain"),
    )
    engine = ScenarioEngine(
        sim, network, peers_of(overlay), Scenario(
            name="crash",
            actions=(CorruptPeerView(at=60.0, peer="rdv-0"),),
        ),
    )
    other = ScenarioEngine(sim, network, {}, Scenario(name="none"))
    first = InvariantChecker(sim, overlay.rendezvous, engine)
    with pytest.raises(RuntimeError):
        InvariantChecker(sim, overlay.rendezvous, other)
    with pytest.raises(RuntimeError):
        InvariantChecker(sim, [], engine)
    first.detach()
    InvariantChecker(sim, overlay.rendezvous, engine)
