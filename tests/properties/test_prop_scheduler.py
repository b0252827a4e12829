"""Property-based tests: the kernel against a reference model.

The kernel's contract is small: events fire in ``(time, seq)`` order,
a cancelled event never fires, hooks see the events fired while they
are registered, ``stop`` ends the run it is called in with every later
event still pending, and ``run(until=…)`` fires what is due and leaves
the clock at ``until``.  :class:`Model` is that contract in the
plainest code there is — one list kept sorted, scanned from the front.
A generated program of timer operations (spawn, cancel, hook toggles,
``stop``) is interpreted on the kernel and on the model and the full
observable logs are compared exactly — drained with ``run()`` and
driven the way every experiment drives the kernel, as ``run(until=…)``
slices with timers cancelled between them (their tombstones stay in
the heap).
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class ModelHandle:
    def __init__(self, model, label):
        self.model, self.label, self.state = model, label, "pending"

    def cancel(self):
        if self.state != "pending":
            return False
        self.state = "cancelled"
        self.model.pending_events -= 1
        return True


class Model:
    """A sorted list of ``(time, seq, handle, fn, args)``."""

    def __init__(self):
        self.now, self.events_fired, self.pending_events = 0.0, 0, 0
        self.seq, self.queue, self.hooks, self.stopped = 0, [], [], False

    def schedule(self, delay, fn, *args, label=""):
        handle = ModelHandle(self, label)
        bisect.insort(self.queue, (self.now + delay, self.seq, handle, fn, args))
        self.seq += 1
        self.pending_events += 1
        return handle

    def add_trace_hook(self, hook, phases):
        self.hooks = [hook]

    def remove_trace_hook(self, hook):
        self.hooks = []

    def stop(self):
        self.stopped = True

    def run(self, until=None):
        self.stopped = False
        while self.queue and not self.stopped:
            time, _, handle, fn, args = self.queue[0]
            if handle.state == "pending" and until is not None and time > until:
                break
            del self.queue[0]
            if handle.state != "pending":
                continue
            self.now, handle.state = time, "fired"
            self.events_fired += 1
            self.pending_events -= 1
            hooked = self.hooks
            for hook in hooked:
                hook(time, "fire", handle)
            fn(*args)
            for hook in self.hooks if hooked else ():
                hook(self.now, "done", handle)
        if not self.stopped and until is not None and self.now < until:
            self.now = until


# Exact values make same-instant ties (FIFO by seq) likely.
delay_values = st.one_of(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    st.sampled_from((0.0, 1e-9, 0.5, 1.0, 7.3, 64.0, 100.0)),
)

# One top-level timer: (delay, kind, auxiliary delay, auxiliary int).
# ``kind`` selects what the timer does when it fires.
event_specs = st.tuples(
    delay_values,
    st.sampled_from(["plain", "spawn", "cancel", "hook", "stop"]),
    delay_values,
    st.integers(min_value=0, max_value=1_000_000),
)

programs = st.lists(event_specs, min_size=1, max_size=25)
slice_cuts = st.lists(delay_values, min_size=1, max_size=6)


def _interpret(sim, events, cuts=None, cancel_at_cuts=False):
    """Run ``events`` on ``sim``; return the observable log.  With
    ``cuts`` the program is driven by ``run(until=…)`` slices, one per
    cut, before it is drained; ``cancel_at_cuts`` also cancels a timer
    between slices."""
    log = []
    handles = []
    hook_on = [False]

    def hook(now, phase, handle):
        # logging the phase checks hook delivery parity
        log.append(("hook", now, phase, handle.label))

    def fire(tag, kind, aux_delay, aux_int):
        log.append((tag, sim.now, kind))
        if kind == "spawn":
            handles.append(
                sim.schedule(
                    aux_delay, fire, f"{tag}c", "plain", 0.0, 0,
                    label=f"{tag}c",
                )
            )
        elif kind == "cancel" and handles:
            target = handles[aux_int % len(handles)]
            log.append(("cancel", tag, target.cancel()))
        elif kind == "hook":
            if hook_on[0]:
                sim.remove_trace_hook(hook)
            else:
                sim.add_trace_hook(hook, phases=("fire", "done"))
            hook_on[0] = not hook_on[0]
        elif kind == "stop":
            sim.stop()

    for i, (delay, kind, aux_delay, aux_int) in enumerate(events):
        handles.append(
            sim.schedule(delay, fire, str(i), kind, aux_delay, aux_int,
                         label=str(i))
        )
    at = 0.0
    for i, cut in enumerate(cuts or ()):
        at += cut
        sim.run(until=at)
        log.append(("slice", sim.now, sim.events_fired, sim.pending_events))
        if cancel_at_cuts:
            log.append(("cut-cancel", i, handles[i % len(handles)].cancel()))
    # a ``stop`` event ends the run it fires in; keep draining until the
    # simulation is genuinely empty so post-stop behaviour is compared
    for _ in range(len(events) * 2 + 2):
        sim.run()
        if sim.pending_events == 0:
            break
    log.append(("end", sim.now, sim.events_fired, sim.pending_events))
    return log


@settings(max_examples=60, deadline=None)
@given(programs)
def test_kernel_fires_as_the_reference_model(events):
    assert _interpret(Simulator(seed=3), events) == _interpret(Model(), events)


@settings(max_examples=40, deadline=None)
@given(programs, slice_cuts)
def test_sliced_runs_match_the_reference_model(events, cuts):
    """Deadline slices with a timer cancelled between each pair: the
    tombstone waits in the heap until the next slice pops it."""
    assert _interpret(Simulator(seed=3), events, cuts, True) == (
        _interpret(Model(), events, cuts, True)
    )


@settings(max_examples=60, deadline=None)
@given(programs, slice_cuts)
def test_sliced_program_fires_what_the_drain_fires(events, cuts):
    """Where the slices fall changes nothing that fires — not even
    around a ``stop``, which ends one slice and leaves the rest of the
    timeline to the next.  Only the clock may differ: a slice advances
    it to ``until``."""
    sliced = _interpret(Simulator(seed=3), events, cuts)
    assert sliced == _interpret(Model(), events, cuts)
    drained = _interpret(Simulator(seed=3), events)
    fires = [entry for entry in sliced if entry[0] != "slice"]
    assert fires[:-1] == drained[:-1]
    assert fires[-1][2:] == drained[-1][2:]
