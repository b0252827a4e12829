"""The discrete-event simulator core.

Design notes
------------
* The scheduler is **one binary heap** of ``(time, seq, handle, fn,
  args)`` tuples (``_queue``).  ``seq`` is a monotonically increasing
  tie-breaker so that events scheduled for the same instant fire in
  FIFO order: ``(time, seq)`` is the only place the fire order is
  decided, and it makes every run fully deterministic for a given
  seed.  Tuples (rather than bare handles) keep the heap's sift
  comparisons in C: no Python ``__lt__`` frames on the hot path.
* Cancellation is *lazy*: a cancelled handle stays in the heap and is
  skipped when popped.  This keeps ``cancel()`` O(1), which matters
  because protocol timers (lease renewals, peerview probes) are
  rescheduled constantly at large overlay sizes.  When the tombstones
  outnumber the live entries, :meth:`Simulator._compact` filters them
  out and re-heapifies in place.
* Periodic timers can *re-arm* their existing handle through
  :meth:`Simulator.reschedule` instead of allocating a fresh one per
  tick — at r = 580 the peerview/SRDI/lease tick storm is millions of
  avoided allocations over a paper-scale run.
* :meth:`Simulator.run` is **one loop**, for ``run()`` and
  ``run(until=…)`` alike (no deadline is a deadline of infinity).  An
  event popped beyond the deadline is pushed back unchanged for the
  next slice; every experiment drives the kernel as a sliced timeline.
  Per event the loop re-reads the stop flag, the handle's state and
  the hook flag, which is all that a mid-run ``stop``, ``cancel``,
  compaction or hook (un)registration needs.
* Live-event accounting is O(1): ``pending_events`` is derived from
  the scheduled/fired/cancelled counters instead of a heap scan.
* ``schedule`` and the ``run`` loop are deliberately inlined (no
  helper-call chain, handle construction without an ``__init__``
  frame, a no-hook fast path, ``__slots__`` everywhere): the
  paper-scale 580-peer run executes ~2 M events, so every avoided
  Python call is minutes of wall clock.
* ``run`` suspends the *cyclic* garbage collector while the loop is
  hot.  Event plumbing (handles, heap tuples, envelopes) is freed
  promptly by reference counting, but every allocation otherwise
  pushes the young generation toward a collection that scans the
  whole live queue — a double-digit percentage of kernel time at
  paper scale.  The previous enabled/disabled state is restored on
  exit, even on exceptions.
* The kernel knows nothing about peers or networks; higher layers
  (``repro.network``, ``repro.rendezvous``...) build on ``schedule``.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Optional

from repro.sim.clock import Clock, format_time
from repro.sim.errors import SchedulingError, SimulationLimitExceeded
from repro.sim.rng import RngRegistry

TraceHook = Callable[[float, str, "EventHandle"], None]

#: Compaction trigger: rebuild the heap once at least this many
#: cancelled handles are queued *and* they outnumber the live ones.
_COMPACT_MIN_DEAD = 64

_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify
_new_handle = None  # bound to EventHandle.__new__ below the class


class EventHandle:
    """Handle to a scheduled event; allows cancellation and inspection.

    The lifecycle state and the owning-simulator backref share one
    slot (``_state``) so the scheduling fast path writes a single
    field: *pending* handles hold their :class:`Simulator`,
    *cancelled* ones hold ``None`` and *fired* ones hold ``False``.
    Fire time, sequence number and callback arguments live in the
    heap entry, not here."""

    __slots__ = ("fn", "_label", "_state")

    @property
    def label(self) -> str:
        """Trace label: the explicit label passed to ``schedule``, or
        the callback's ``__name__``.  Resolved lazily — most events are
        never traced, so the fallback ``getattr`` is off the schedule
        fast path."""
        lab = getattr(self, "_label", "")
        return lab or getattr(self.fn, "__name__", "event")

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._state is None

    @property
    def fired(self) -> bool:
        """True once the event callback has been invoked."""
        return self._state is False

    @property
    def pending(self) -> bool:
        """True while the event is still waiting in the queue."""
        state = self._state
        return state is not None and state is not False

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it was still pending."""
        state = self._state
        if state is None or state is False:
            return False
        self._state = None
        state._note_cancel()
        return True

    # ------------------------------------------------------------------
    # pickling (repro.snapshot)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Slots may be legitimately unset (the ``schedule`` fast path
        writes only ``_state`` plus one of ``_label``/``fn``).
        ``_state`` holding the owning :class:`Simulator` pickles
        through the memo, so handles restored as part of a full
        simulator graph keep their backref."""
        state = {}
        for slot in self.__slots__:
            try:
                state[slot] = getattr(self, slot)
            except AttributeError:
                pass
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self._state is None
            else "fired" if self._state is False else "pending"
        )
        return f"EventHandle({self.label!r}, {state})"


_new_handle = EventHandle.__new__


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all randomness in the run.  Every component
        draws from a *named* stream derived from this seed (see
        :class:`repro.sim.rng.RngRegistry`), so runs are reproducible
        and component randomness is decoupled.
    max_events:
        Safety valve: abort if more than this many events fire in one
        ``run`` call (guards against runaway protocol loops).
    """

    __slots__ = (
        "clock", "rng", "seed", "compactions",
        "_queue", "_seq", "_events_fired", "_cancelled", "_dead",
        "_max_events", "_running", "_stop_requested",
        "_trace_hooks", "_fire_hooks", "_done_hooks", "_hooks_active",
    )

    def __init__(
        self,
        seed: int = 0,
        max_events: Optional[int] = None,
    ) -> None:
        self.clock = Clock()
        self.rng = RngRegistry(seed)
        self.seed = seed
        self._queue: list[tuple[float, int, EventHandle]] = []
        #: scheduled-event count; doubles as the FIFO tie-breaker
        self._seq = 0
        self._events_fired = 0
        #: total events ever cancelled (pending_events derives from it)
        self._cancelled = 0
        #: cancelled handles still resident in the heap
        self._dead = 0
        self._max_events = max_events
        self._running = False
        self._stop_requested = False
        #: registered hooks as (hook, phases); one entry per callable
        self._trace_hooks: list[tuple[TraceHook, frozenset[str]]] = []
        #: phase-split views of ``_trace_hooks`` so the fire loop does a
        #: single truthiness check per event instead of filtering
        self._fire_hooks: list[TraceHook] = []
        self._done_hooks: list[TraceHook] = []
        #: single flag the fire loop checks before touching hook lists
        self._hooks_active = False
        #: how many times the heap was compacted (diagnostics)
        self.compactions = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1):
        derived from the schedule/fire/cancel counters rather than a
        scan of the heap."""
        return self._seq - self._events_fired - self._cancelled

    def add_trace_hook(
        self, hook: TraceHook, phases: tuple[str, ...] = ("fire",)
    ) -> None:
        """Register a hook called as ``hook(now, phase, handle)``.

        ``phases`` selects the lifecycle points delivered to the hook:
        ``"fire"`` just before each event executes (the default, and
        the only phase historically emitted) and ``"done"`` right after
        the event callback returns — the post-state view that runtime
        invariant checkers (``repro.faults.invariants``) observe.

        Registrations are deduplicated per callable: adding a hook that
        is already registered *merges* the phase sets instead of
        appending a second entry, so each hook observes every phase at
        most once per event.  :meth:`remove_trace_hook` drops the whole
        registration by default, or just the named phases when given
        ``phases=``."""
        valid = {"fire", "done"}
        unknown = set(phases) - valid
        if unknown:
            raise ValueError(f"unknown trace phases: {sorted(unknown)}")
        merged = frozenset(phases)
        for i, (existing, existing_phases) in enumerate(self._trace_hooks):
            if existing == hook:
                self._trace_hooks[i] = (existing, existing_phases | merged)
                break
        else:
            self._trace_hooks.append((hook, merged))
        self._rebuild_hook_lists()

    def remove_trace_hook(
        self, hook: TraceHook, phases: Optional[tuple[str, ...]] = None
    ) -> None:
        """Unregister a hook previously added (idempotent).  Compared
        by equality, so passing the same bound method works.

        With ``phases=None`` (the default) the callable's whole
        registration is removed — duplicate registrations cannot
        accumulate, see :meth:`add_trace_hook`.  With an explicit
        ``phases=`` only those phases are dropped from a (possibly
        phase-merged) registration; the registration survives with its
        remaining phases, and disappears once the set empties."""
        if phases is None:
            self._trace_hooks = [
                (h, p) for h, p in self._trace_hooks if not (h == hook)
            ]
        else:
            valid = {"fire", "done"}
            unknown = set(phases) - valid
            if unknown:
                raise ValueError(f"unknown trace phases: {sorted(unknown)}")
            dropped = frozenset(phases)
            kept = []
            for h, p in self._trace_hooks:
                if h == hook:
                    p = p - dropped
                    if not p:
                        continue
                kept.append((h, p))
            self._trace_hooks = kept
        self._rebuild_hook_lists()

    def _rebuild_hook_lists(self) -> None:
        self._fire_hooks = [h for h, p in self._trace_hooks if "fire" in p]
        self._done_hooks = [h for h, p in self._trace_hooks if "done" in p]
        self._hooks_active = bool(self._fire_hooks or self._done_hooks)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past (delay={delay})")
        time = self.clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        # handle built without an __init__ frame: this is the single
        # most-executed allocation in a paper-scale run.  The callable,
        # its args, ``time`` and ``seq`` all live in the heap
        # entry — the handle itself carries only what outlives the
        # pop: the lifecycle state and whichever of label/callable the
        # ``label`` property needs for its trace name.
        handle = _new_handle(EventHandle)
        if label:
            handle._label = label
        else:
            handle.fn = fn
        handle._state = self
        _heappush(self._queue, (time, seq, handle, fn, args))
        return handle

    def reschedule(
        self,
        handle: EventHandle,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Re-arm a *fired* handle to run ``fn(*args)`` ``delay``
        seconds from now, reusing the handle object (and its trace
        label) instead of allocating a fresh one.

        This is the periodic-timer fast path: a lease renewal or
        peerview tick that re-arms itself on every firing allocates no
        new handle.  Only fired handles are accepted: a pending one
        would leave two live entries behind one handle, and a
        *cancelled* one may still have a tombstoned entry resident in
        the heap — re-arming would resurrect that entry and fire it."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past (delay={delay})")
        if handle._state is not False:
            raise SchedulingError(
                "only a fired handle can be re-armed; schedule() a new "
                "one for pending or cancelled timers"
            )
        time = self.clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle._state = self
        _heappush(self._queue, (time, seq, handle, fn, args))
        return handle

    # ------------------------------------------------------------------
    # cancellation bookkeeping & compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel`: O(1) accounting plus a
        periodic in-place compaction when tombstones dominate."""
        self._cancelled += 1
        dead = self._dead + 1
        self._dead = dead
        if dead >= _COMPACT_MIN_DEAD and dead > self.pending_events:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify *in place* (a ``run``
        loop in progress holds a reference to the queue list, so its
        identity must not change).  The ``(time, seq)`` order is total,
        so extraction order is unchanged."""
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[2]._state is not None]
        _heapify(queue)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains, :meth:`stop` is called, or
        simulated ``until`` is reached.  When ``until`` is given the
        clock is advanced to exactly ``until`` even if the queue drains
        earlier, so back-to-back ``run(until=...)`` calls behave like a
        sliced timeline.  A stopped run leaves the clock at the event
        that called ``stop`` and every later event pending."""
        if self._running:
            raise SchedulingError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        # Hot loop, with the queue, clock and heap operations bound to
        # locals.  The queue is only ever mutated in place
        # (push/pop/compact), so the binding stays valid across event
        # callbacks.  ``_stop_requested`` and ``_hooks_active`` are
        # re-read every iteration because a callback may call ``stop``
        # or add/remove hooks.
        queue = self._queue
        clock = self.clock
        pop = _heappop
        max_events = self._max_events
        limit = float("inf") if max_events is None else max_events
        deadline = float("inf") if until is None else until
        # ``fired`` is batched in a local and flushed in ``finally`` (and
        # before any hook runs), which keeps post-run readers exact even
        # on stop()/exception exits.
        fired = self._events_fired
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if self._stop_requested:
                    return
                if not queue:
                    break
                entry = pop(queue)
                handle = entry[2]
                if handle._state is None:
                    self._dead -= 1
                    continue
                t = entry[0]
                if t > deadline:
                    # the same tuple goes back: the heap's contents,
                    # and so the fire order, are as before the pop
                    _heappush(queue, entry)
                    break
                clock._now = t
                handle._state = False
                fired += 1
                if fired > limit:
                    raise SimulationLimitExceeded(
                        f"exceeded max_events={max_events}"
                    )
                fn = entry[3]
                args = entry[4]
                if self._hooks_active:
                    self._events_fired = fired
                    for hook in self._fire_hooks:
                        hook(t, "fire", handle)
                    fn(*args)
                    now = clock._now
                    for hook in self._done_hooks:
                        hook(now, "done", handle)
                else:
                    fn(*args)
            if until is not None and clock._now < until:
                clock._advance_to(until)
        finally:
            self._events_fired = fired
            if gc_was_enabled:
                gc.enable()
            self._running = False

    # ------------------------------------------------------------------
    # pickling & checkpointing (repro.snapshot)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """State contract (see docs/CHECKPOINTS.md): the heap, the
        clock, the seq counter and the RNG registry pickle verbatim; the
        run-control flags reset (a snapshot is only legal between
        ``run`` calls).  The derived ``_fire_hooks``/``_done_hooks``
        views are rebuilt from ``_trace_hooks``."""
        if self._running:
            raise SchedulingError(
                "cannot snapshot a running simulator; snapshot between "
                "run() calls (an event boundary)"
            )
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_fire_hooks"] = None
        state["_done_hooks"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._running = False
        self._stop_requested = False
        self._rebuild_hook_lists()

    def stop(self) -> None:
        """Request the current ``run`` call to return after the executing
        event completes.  The run loop reads the flag before it looks at
        the next event, so nothing is taken off the heap: every later
        event stays pending for the next ``run`` call."""
        self._stop_requested = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(t={format_time(self.clock.now)}, "
            f"fired={self._events_fired}, pending={self.pending_events})"
        )
