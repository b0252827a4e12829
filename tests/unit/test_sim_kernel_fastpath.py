"""Tests for the kernel's optimised hot paths.

One run loop serves ``run()`` and ``run(until=…)``; around it sit heap
compaction, O(1) accounting, the hook registry and mid-run control
(``stop``, ``cancel``, hook changes from inside a callback).  These
tests pin the contract that none of them changes what fires: same fire
order, same clock, same counters as a kernel that does none of it.
"""

import pytest

import repro.sim.kernel as kernel
from repro.sim import Simulator


def noop(*args):
    pass


# ----------------------------------------------------------------------
# heap compaction
# ----------------------------------------------------------------------
def _cancelled_heavy_drain(sim, generations=8, fanout=10, chains=20):
    """A lease-renewal-style workload: every firing reschedules a batch
    of timers and cancels all but one, leaving the heap mostly dead."""
    fired = []

    def work(chain, depth):
        fired.append((round(sim.now, 9), chain, depth))
        if depth == 0:
            return
        timers = [
            sim.schedule(1.0 + k * 0.25, work, chain, depth - 1)
            for k in range(fanout)
        ]
        for t in timers[1:]:
            t.cancel()

    for c in range(chains):
        sim.schedule(0.01 * c, work, c, generations)
    sim.run()
    return fired, sim.now, sim.events_fired


def _cancelled_heavy_sliced(sim):
    """Same flavour of workload driven as ``run(until=…)`` slices."""
    fired = []

    def work(chain):
        fired.append((round(sim.now, 9), chain))
        timers = [sim.schedule(2.0, work, chain) for _ in range(8)]
        for t in timers[:-1]:
            t.cancel()

    for c in range(15):
        sim.schedule(0.1 * c, work, c)
    while sim.now < 40.0:
        sim.run(until=sim.now + 5.0)
    return fired, sim.now, sim.events_fired


class TestHeapCompaction:
    def test_drain_fire_order_identical_with_and_without_compaction(
        self, monkeypatch
    ):
        compacted_sim = Simulator(seed=3)
        compacted = _cancelled_heavy_drain(compacted_sim)
        assert compacted_sim.compactions > 0

        monkeypatch.setattr(kernel, "_COMPACT_MIN_DEAD", 10**9)
        uncompacted_sim = Simulator(seed=3)
        uncompacted = _cancelled_heavy_drain(uncompacted_sim)
        assert uncompacted_sim.compactions == 0

        assert compacted == uncompacted

    def test_sliced_fire_order_identical_with_and_without_compaction(
        self, monkeypatch
    ):
        compacted_sim = Simulator(seed=5)
        compacted = _cancelled_heavy_sliced(compacted_sim)
        assert compacted_sim.compactions > 0

        monkeypatch.setattr(kernel, "_COMPACT_MIN_DEAD", 10**9)
        uncompacted_sim = Simulator(seed=5)
        uncompacted = _cancelled_heavy_sliced(uncompacted_sim)
        assert uncompacted_sim.compactions == 0

        assert compacted == uncompacted

    def test_compaction_shrinks_heap_and_keeps_counters_exact(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), noop) for i in range(200)]
        for h in handles[:150]:
            h.cancel()
        assert sim.compactions > 0
        # _dead always equals the cancelled entries resident in the heap
        assert sim._dead == sum(
            1 for entry in sim._queue if entry[2]._state is None
        )
        assert len(sim._queue) < 200
        assert sim.pending_events == 50
        sim.run()
        assert sim.events_fired == 50
        assert sim._dead == 0


# ----------------------------------------------------------------------
# O(1) accounting
# ----------------------------------------------------------------------
class TestPendingEventsCounter:
    def test_counter_tracks_schedule_cancel_fire(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), noop) for i in range(10)]
        assert sim.pending_events == 10
        assert handles[0].cancel()
        assert handles[1].cancel()
        assert sim.pending_events == 8
        assert not handles[0].cancel()  # idempotent, no double count
        assert sim.pending_events == 8
        sim.run(until=3.0)  # the first two are tombstones: one event fires
        assert sim.events_fired == 1
        assert sim.pending_events == 7
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_fired == 8

    def test_counter_correct_across_sliced_runs(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule(float(i), noop)
        sim.run(until=2.5)
        assert sim.events_fired == 3
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0


# ----------------------------------------------------------------------
# trace-hook registry
# ----------------------------------------------------------------------
class TestHookDedup:
    def test_re_adding_merges_phases(self):
        sim = Simulator()
        seen = []

        def hook(t, phase, h):
            seen.append((phase, h.label))

        sim.add_trace_hook(hook, phases=("fire",))
        sim.add_trace_hook(hook, phases=("done",))
        assert len(sim._trace_hooks) == 1
        sim.schedule(1.0, noop, label="x")
        sim.run()
        assert seen == [("fire", "x"), ("done", "x")]

    def test_duplicate_same_phase_delivers_once(self):
        sim = Simulator()
        calls = []

        def hook(t, phase, h):
            calls.append(phase)

        sim.add_trace_hook(hook)
        sim.add_trace_hook(hook)
        sim.schedule(0.0, noop)
        sim.run()
        assert calls == ["fire"]

    def test_remove_clears_every_phase(self):
        sim = Simulator()
        seen = []

        def hook(t, phase, h):
            seen.append(phase)

        sim.add_trace_hook(hook, phases=("fire",))
        sim.add_trace_hook(hook, phases=("done",))
        sim.remove_trace_hook(hook)
        assert sim._trace_hooks == []
        sim.schedule(0.0, noop)
        sim.run()
        assert seen == []


# ----------------------------------------------------------------------
# mid-run control changes (the loop re-reads its flags per event)
# ----------------------------------------------------------------------
class TestMidRunControl:
    """Each case runs as a drain and, in its ``_until`` twin, against a
    deadline beyond the last event."""

    @staticmethod
    def _stop_keeps_remaining_events(until):
        sim = Simulator()
        fired = []

        def ev(i):
            fired.append(i)
            if i == 2:
                sim.stop()

        for i in range(5):
            sim.schedule(float(i), ev, i)
        sim.run(until)
        assert fired == [0, 1, 2]
        assert sim.now == 2.0
        assert sim.pending_events == 2
        assert sim.events_fired == 3
        sim.run(until)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.events_fired == 5

    @staticmethod
    def _cancel_future_event(until):
        sim = Simulator()
        fired = []
        victim = []

        def killer():
            fired.append("killer")
            victim[0].cancel()

        victim.append(sim.schedule(2.0, lambda: fired.append("victim")))
        sim.schedule(1.0, killer)
        sim.schedule(3.0, lambda: fired.append("tail"))
        sim.run(until)
        assert fired == ["killer", "tail"]
        assert sim.events_fired == 2
        assert sim.now == (3.0 if until is None else until)
        assert sim.pending_events == 0

    @staticmethod
    def _hook_added_sees_subsequent_events(until):
        sim = Simulator()
        seen = []

        def hook(t, phase, h):
            seen.append((t, h.label))

        sim.schedule(1.0, lambda: sim.add_trace_hook(hook), label="a")
        sim.schedule(2.0, noop, label="b")
        sim.schedule(3.0, noop, label="c")
        sim.run(until)
        assert seen == [(2.0, "b"), (3.0, "c")]

    @staticmethod
    def _hook_removed_stops_seeing_events(until):
        sim = Simulator()
        seen = []

        def hook(t, phase, h):
            seen.append(h.label)

        sim.add_trace_hook(hook)
        sim.schedule(1.0, lambda: sim.remove_trace_hook(hook), label="rm")
        sim.schedule(2.0, noop, label="late")
        sim.run(until)
        assert seen == ["rm"]

    def test_stop_mid_run_keeps_remaining_events(self):
        self._stop_keeps_remaining_events(None)

    def test_stop_mid_run_keeps_remaining_events_until(self):
        self._stop_keeps_remaining_events(10.0)

    def test_cancel_future_event_during_drain(self):
        self._cancel_future_event(None)

    def test_cancel_future_event_during_run_until(self):
        self._cancel_future_event(10.0)

    def test_hook_added_mid_run_sees_subsequent_events(self):
        self._hook_added_sees_subsequent_events(None)

    def test_hook_added_mid_run_sees_subsequent_events_until(self):
        self._hook_added_sees_subsequent_events(10.0)

    def test_hook_removed_mid_run_stops_seeing_events(self):
        self._hook_removed_stops_seeing_events(None)

    def test_hook_removed_mid_run_stops_seeing_events_until(self):
        self._hook_removed_stops_seeing_events(10.0)


# ----------------------------------------------------------------------
# counters after a callback raises
# ----------------------------------------------------------------------
class TestCountersAfterException:
    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_counters_exact_after_callback_raises_in_run_until(self, hooked):
        sim = Simulator()
        if hooked:
            sim.add_trace_hook(lambda t, p, h: None)

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, noop)
        sim.schedule(2.0, boom)
        sim.schedule(3.0, noop)
        sim.schedule(70.0, noop)
        with pytest.raises(RuntimeError):
            sim.run(until=100.0)
        # the raising event counts as fired; nothing after it was taken
        assert sim.events_fired == 2
        assert sim.pending_events == 2
        assert sim.now == 2.0
        sim.run(until=100.0)  # and the kernel is reusable
        assert sim.events_fired == 4
        assert sim.pending_events == 0
        assert sim.now == 100.0


# ----------------------------------------------------------------------
# hooks and the event limit change nothing that fires
# ----------------------------------------------------------------------
class TestLoopEquivalence:
    """A kernel with a trace hook or a ``max_events`` limit takes extra
    branches inside the one run loop; fire order, clock and counters
    must equal the plain kernel's."""

    @staticmethod
    def _chain(sim):
        fired = []

        def tick(n):
            fired.append((sim.now, n))
            if n:
                sim.schedule(0.5, tick, n - 1)

        sim.schedule(0.0, tick, 40)
        sim.run()
        return fired, sim.now, sim.events_fired

    def test_max_events_kernel_matches_fast_kernel(self):
        assert self._chain(Simulator(seed=1)) == self._chain(
            Simulator(seed=1, max_events=10_000)
        )

    def test_hooked_kernel_matches_fast_kernel(self):
        plain = self._chain(Simulator(seed=1))
        hooked_sim = Simulator(seed=1)
        hooked_sim.add_trace_hook(lambda t, p, h: None)
        assert self._chain(hooked_sim) == plain
