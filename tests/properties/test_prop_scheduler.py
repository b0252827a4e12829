"""Property-based tests: wheel-vs-heap scheduler equivalence.

The timer-wheel scheduler must be *observationally identical* to the
plain binary heap: same (time, seq) fire order, same clock trajectory,
same counters — byte for byte, for any interleaving of scheduling,
cancellation, handle reuse (``reschedule``) and mid-run control
changes (trace hooks and ``stop``).  A generated program of timer
operations is interpreted on one simulator of each flavour and the
full observable logs are compared exactly — drained with ``run()`` and
driven the way every experiment drives the kernel, as ``run(until=…)``
slices, which must also fire what the drain fires.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimOptions, Simulator

# Delays straddling every tier boundary: inside the active window,
# across wheel slots (0.5 s wide, 128 slots = 64 s span) and beyond
# the wheel horizon into the overflow heap.
_BOUNDARY_DELAYS = (
    0.0, 1e-9, 0.25, 0.4999999, 0.5, 0.5000001, 1.0, 7.3,
    63.999999, 64.0, 64.000001, 100.0, 127.75, 200.0, 500.0,
)

delay_values = st.one_of(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    st.sampled_from(_BOUNDARY_DELAYS),
)

# One top-level timer: (delay, kind, auxiliary delay, auxiliary int).
# ``kind`` selects what the timer does when it fires.
event_specs = st.tuples(
    delay_values,
    st.sampled_from(["plain", "spawn", "cancel", "resched", "hook", "stop"]),
    delay_values,
    st.integers(min_value=0, max_value=1_000_000),
)

programs = st.lists(event_specs, min_size=1, max_size=25)


def _interpret(events, scheduler, cuts=None, cancel_at_cuts=False):
    """Run ``events`` on a fresh simulator; return the observable log.
    With ``cuts`` the program is driven by ``run(until=…)`` slices, one
    per cut, before it is drained; ``cancel_at_cuts`` also cancels a
    timer between slices, leaving its tombstone resident in whichever
    tier currently holds the entry."""
    sim = Simulator(
        seed=3, options=replace(SimOptions.from_env(), scheduler=scheduler)
    )
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
        elif kind == "resched":
            # re-arm this timer's own (just-fired) handle, the periodic
            # pattern; the re-armed shot is plain so it fires once more
            own = handles[int(tag)]
            handles[int(tag)] = sim.reschedule(
                own, aux_delay, fire, f"{tag}r", "plain", 0.0, 0
            )
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
def test_wheel_and_heap_fire_identically(events):
    assert _interpret(events, "wheel") == _interpret(events, "heap")


slice_cuts = st.lists(delay_values, min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(programs, slice_cuts)
def test_sliced_runs_match_across_schedulers(events, cuts):
    """Deadline-sliced runs (the experiment-campaign pattern) must also
    agree: window refills happen at different moments under slicing."""
    assert _interpret(events, "wheel", cuts, cancel_at_cuts=True) == (
        _interpret(events, "heap", cuts, cancel_at_cuts=True)
    )


@settings(max_examples=60, deadline=None)
@given(programs, slice_cuts)
def test_sliced_program_fires_what_the_drain_fires(events, cuts):
    """Where the slices fall changes nothing that fires — not even
    around a ``stop``, which ends one slice and leaves the rest of the
    timeline to the next.  Only the final clock may differ: a slice
    advances it to ``until``."""
    sliced = _interpret(events, "wheel", cuts)
    assert sliced == _interpret(events, "heap", cuts)
    drained = _interpret(events, "wheel")
    assert sliced[:-1] == drained[:-1]
    assert sliced[-1][2:] == drained[-1][2:]
