"""The discrete-event simulator core.

Design notes
------------
* The scheduler is **two-tier**.  The *active window* is a binary heap
  of ``(time, seq, handle, fn, args)`` tuples (``_queue``) covering the
  next ``_WHEEL_WIDTH`` seconds of simulated time; the run loop pops
  straight off it, so its hot path is identical to a plain-heap
  kernel.  Everything further out lives in a **timer wheel**: 128
  slots of 0.5 s (64 s span) whose buckets are *unsorted* lists —
  scheduling a protocol timer is a C-speed ``list.append`` instead of
  an ``O(log n)`` sift through a heap holding every pending event.
  Events beyond the wheel horizon (lease renewals, expiration sweeps)
  wait in an overflow heap and migrate inward as the horizon advances.
  When the active window drains, :meth:`Simulator._refill` slides the
  window one slot forward: filter the bucket's tombstones, heapify the
  survivors, go.  The slot width is a power of two, so slot arithmetic
  (``int(time * 2.0)``) is float-exact and the fire order is the exact
  global ``(time, seq)`` order — bit-for-bit the same as the pure-heap
  scheduler (``SimOptions(scheduler="heap")`` selects that fallback,
  and the determinism tests compare the two byte-for-byte).
* ``seq`` is a monotonically increasing tie-breaker so that events
  scheduled for the same instant fire in FIFO order — this makes every
  run fully deterministic for a given seed.  Tuples (rather than bare
  handles) keep the heap's sift comparisons in C: no Python
  ``__lt__`` frames on the hot path.
* Cancellation is *lazy*: a cancelled handle stays in its slot (wheel
  bucket or heap) and is skipped when popped or migrated.  This keeps
  ``cancel()`` O(1), which matters because protocol timers (lease
  renewals, peerview probes) are rescheduled constantly at large
  overlay sizes.  Wheel-resident tombstones die for free at the next
  slot migration, so the cancel/reschedule churn of periodic timers
  never accumulates; the compaction pass (:meth:`Simulator._compact`)
  remains as the backstop for heap-resident dead (and is the primary
  mechanism under the heap scheduler).
* Periodic timers can *re-arm* their existing handle through
  :meth:`Simulator.reschedule` instead of allocating a fresh one per
  tick — at r = 580 the peerview/SRDI/lease tick storm is millions of
  avoided allocations over a paper-scale run.
* When a wheel slot migrates inward, its survivors are *sorted once*
  into a batch list (``_batch``) instead of heapified into the active
  queue: the run loop then merges the batch cursor against the heap
  head with a single C tuple compare per event, so the heap only ever
  holds events scheduled *into* the current window and the common
  case — a cohort of protocol timers sharing a slot — dispatches with
  no per-event sift at all.  ``(time, seq)`` keys are unique, so the
  merge reproduces the exact global fire order of the pure-heap
  scheduler, bit for bit.
* :meth:`Simulator.run` is **one loop**, for ``run()`` and
  ``run(until=…)`` alike (no deadline is a deadline of infinity).  It
  *peeks* at the next entry — batch cursor against heap head — before
  taking it, because an event beyond the deadline has to stay where it
  is for the next slice; every experiment drives the kernel as a
  sliced timeline, so that is the path worth having.  Per event the
  loop re-reads the stop flag, the batch cursor, the handle's state
  and the hook flag, which is all that a mid-run ``stop``, ``cancel``,
  compaction or hook (un)registration needs.
* Live-event accounting is O(1): ``pending_events`` is derived from
  the scheduled/fired/cancelled counters instead of scanning tiers.
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
from repro.sim.options import SimOptions
from repro.sim.rng import RngRegistry

TraceHook = Callable[[float, str, "EventHandle"], None]

#: Compaction trigger: rebuild the heap once at least this many
#: cancelled handles are queued *and* they outnumber the live ones.
_COMPACT_MIN_DEAD = 64

#: Timer-wheel geometry.  The width is a power of two so that
#: ``time * _INV_WIDTH`` and ``slot * _WHEEL_WIDTH`` are exact float
#: operations: an event is always placed in, and drained from, the
#: same slot regardless of how the window got there.
_WHEEL_SLOTS = 128
_WHEEL_MASK = _WHEEL_SLOTS - 1
_WHEEL_WIDTH = 0.5
_INV_WIDTH = 2.0  # 1 / _WHEEL_WIDTH
_WHEEL_SPAN = _WHEEL_SLOTS * _WHEEL_WIDTH  # 64 s horizon

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
    scheduler entry, not here."""

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
    options:
        :class:`~repro.sim.options.SimOptions`, read by the network and
        the protocols as ``sim.options``; ``None`` means
        :meth:`SimOptions.from_env`.
    """

    __slots__ = (
        "clock", "rng", "seed", "compactions", "options",
        "_queue", "_seq", "_events_fired", "_cancelled", "_dead",
        "_use_wheel", "_wheel", "_wheel_count", "_overflow",
        "_next_slot", "_win_end", "_wheel_limit",
        "_batch", "_batch_pos",
        "_max_events", "_running", "_stop_requested",
        "_trace_hooks", "_fire_hooks", "_done_hooks", "_hooks_active",
    )

    def __init__(
        self,
        seed: int = 0,
        max_events: Optional[int] = None,
        options: Optional[SimOptions] = None,
    ) -> None:
        self.clock = Clock()
        self.rng = RngRegistry(seed)
        self.seed = seed
        self.options = options = options or SimOptions.from_env()
        self._use_wheel = options.scheduler == "wheel"
        self._queue: list[tuple[float, int, EventHandle]] = []
        #: scheduled-event count; doubles as the FIFO tie-breaker
        self._seq = 0
        self._events_fired = 0
        #: total events ever cancelled (pending_events derives from it)
        self._cancelled = 0
        #: cancelled handles still resident in any tier (active queue,
        #: batch remnant, wheel bucket or overflow heap)
        self._dead = 0
        if self._use_wheel:
            #: far-tier slots; each bucket is an *unsorted* entry list
            self._wheel: list[list] = [[] for _ in range(_WHEEL_SLOTS)]
            #: entries (live + dead) currently in wheel buckets
            self._wheel_count = 0
            #: events beyond the wheel horizon, as a heap
            self._overflow: list = []
            #: absolute index of the next slot to migrate
            self._next_slot = 0
            #: active-window end: events below it heap straight into
            #: ``_queue``; at or beyond it they go to the wheel tiers
            self._win_end = 0.0
            #: wheel horizon (``_win_end + _WHEEL_SPAN``)
            self._wheel_limit = _WHEEL_SPAN
        else:
            self._wheel = []
            self._wheel_count = 0
            self._overflow = []
            self._next_slot = 0
            self._win_end = float("inf")
            self._wheel_limit = float("inf")
        #: migrated wheel slot, sorted ascending; the run loop merges
        #: ``_batch[_batch_pos:]`` against the active heap by a single
        #: tuple compare per event (empty under the heap scheduler)
        self._batch: list = []
        self._batch_pos = 0
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
        #: how many times the tiers were compacted (diagnostics)
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
        scan of the scheduler tiers."""
        return self._seq - self._events_fired - self._cancelled

    def _resident_entries(self):
        """Every entry currently held by the scheduler, across all
        tiers (active queue, batch remnant, wheel buckets, overflow).
        Diagnostics/test helper — never on a hot path."""
        yield from self._queue
        yield from self._batch[self._batch_pos:]
        for bucket in self._wheel:
            yield from bucket
        yield from self._overflow

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
        # its args, ``time`` and ``seq`` all live in the scheduler
        # entry — the handle itself carries only what outlives the
        # pop: the lifecycle state and whichever of label/callable the
        # ``label`` property needs for its trace name.
        handle = _new_handle(EventHandle)
        if label:
            handle._label = label
        else:
            handle.fn = fn
        handle._state = self
        if time < self._win_end:
            _heappush(self._queue, (time, seq, handle, fn, args))
        elif time < self._wheel_limit:
            self._wheel[int(time * _INV_WIDTH) & _WHEEL_MASK].append(
                (time, seq, handle, fn, args)
            )
            self._wheel_count += 1
        else:
            _heappush(self._overflow, (time, seq, handle, fn, args))
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
        a tier — re-arming would resurrect that entry and fire it."""
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
        # tier routing inlined: every periodic timer re-arms through
        # here on each tick
        if time < self._win_end:
            _heappush(self._queue, (time, seq, handle, fn, args))
        elif time < self._wheel_limit:
            self._wheel[int(time * _INV_WIDTH) & _WHEEL_MASK].append(
                (time, seq, handle, fn, args)
            )
            self._wheel_count += 1
        else:
            _heappush(self._overflow, (time, seq, handle, fn, args))
        return handle

    # ------------------------------------------------------------------
    # window migration (wheel -> active queue)
    # ------------------------------------------------------------------
    def _refill(self) -> bool:
        """Slide the active window forward until it holds the next
        pending events (or every tier is empty).  Returns True when
        events are available in the active window afterwards.

        Invariants: the active queue plus the batch remnant hold
        exactly the entries with ``time < _win_end``; wheel buckets
        cover ``[_win_end, _wheel_limit)``; the overflow heap holds the
        rest.  Each step advances the window one slot: tombstones
        filtered (this is where cancelled wheel timers die, with no
        compaction pass), survivors *sorted once* into the batch list
        — ``(time, seq)`` keys are unique, so a sort dispatches the
        slot cohort in the same order heapify + N heappops would, at a
        fraction of the compare count — and overflow entries whose
        time dropped below the horizon dealt into their buckets."""
        queue = self._queue
        if queue:
            return True
        batch = self._batch
        if self._batch_pos < len(batch):
            return True
        if batch:
            # previous batch fully consumed: recycle the list in place
            # (the run loop holds a reference to it)
            del batch[:]
            self._batch_pos = 0
        if not self._use_wheel:
            return False
        wheel = self._wheel
        overflow = self._overflow
        while True:
            if self._wheel_count == 0:
                if not overflow:
                    return False
                # nothing in the wheel: snap the window to the slot of
                # the next overflow event instead of stepping through
                # the empty gap half-second by half-second
                slot = int(overflow[0][0] * _INV_WIDTH)
                if slot > self._next_slot:
                    self._next_slot = slot
                    self._win_end = slot * _WHEEL_WIDTH
                    self._wheel_limit = self._win_end + _WHEEL_SPAN
            # deal newly-in-horizon overflow events into their buckets
            limit = self._wheel_limit
            while overflow and overflow[0][0] < limit:
                entry = _heappop(overflow)
                wheel[int(entry[0] * _INV_WIDTH) & _WHEEL_MASK].append(entry)
                self._wheel_count += 1
            # migrate the next slot into the batch
            bucket = wheel[self._next_slot & _WHEEL_MASK]
            self._next_slot += 1
            self._win_end = self._next_slot * _WHEEL_WIDTH
            self._wheel_limit = self._win_end + _WHEEL_SPAN
            if bucket:
                total = len(bucket)
                live = [e for e in bucket if e[2]._state is not None]
                bucket.clear()
                self._wheel_count -= total
                self._dead -= total - len(live)
                if live:
                    live.sort()
                    batch[:] = live
                    self._batch_pos = 0
                    return True

    # ------------------------------------------------------------------
    # cancellation bookkeeping & compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel`: O(1) accounting plus a
        periodic in-place compaction when heap-resident dead dominate
        (under the wheel scheduler most tombstones die in slot
        migrations long before this trips)."""
        self._cancelled += 1
        dead = self._dead + 1
        self._dead = dead
        if dead >= _COMPACT_MIN_DEAD and dead > self.pending_events:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from every tier and re-heapify *in
        place* (callers — including a ``run`` loop in progress — hold
        references to the queue list, so its identity must not
        change).  The ``(time, seq)`` order is total, so extraction
        order is unchanged."""
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[2]._state is not None]
        _heapify(queue)
        batch = self._batch
        pos = self._batch_pos
        if pos < len(batch):
            # filter the unconsumed tail in place: the cursor and the
            # consumed prefix stay put, so a run loop mid-batch just
            # sees a shorter (still sorted) remainder
            batch[pos:] = [
                e for e in batch[pos:] if e[2]._state is not None
            ]
        if self._use_wheel:
            removed = 0
            for bucket in self._wheel:
                if bucket:
                    total = len(bucket)
                    bucket[:] = [
                        e for e in bucket if e[2]._state is not None
                    ]
                    removed += total - len(bucket)
            self._wheel_count -= removed
            overflow = self._overflow
            overflow[:] = [
                e for e in overflow if e[2]._state is not None
            ]
            _heapify(overflow)
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
        # Hot loop, with the queue, batch, clock and heappop bound to
        # locals.  Both lists are only ever mutated in place
        # (push/pop/refill/compact), so the bindings stay valid across
        # event callbacks.  The batch cursor, ``_stop_requested`` and
        # ``_hooks_active`` are re-read every iteration because a
        # callback may compact, call ``stop`` or add/remove hooks.
        queue = self._queue
        batch = self._batch
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
            # peek (batch cursor vs heap head) before taking, so an
            # event beyond the deadline stays queued — or waiting at
            # the batch cursor — for the next slice
            while True:
                if self._stop_requested:
                    return
                bpos = self._batch_pos
                if bpos < len(batch):
                    entry = batch[bpos]
                    from_batch = True
                    if queue:
                        head = queue[0]
                        if head < entry:
                            entry = head
                            from_batch = False
                elif queue:
                    entry = queue[0]
                    from_batch = False
                else:
                    # window drained inside the deadline: pull the next
                    # one in (it may hold events at or before the
                    # deadline) and go around
                    if self._refill():
                        continue
                    break
                handle = entry[2]
                if handle._state is None:
                    if from_batch:
                        self._batch_pos = bpos + 1
                    else:
                        pop(queue)
                    self._dead -= 1
                    continue
                t = entry[0]
                if t > deadline:
                    break
                if from_batch:
                    self._batch_pos = bpos + 1
                else:
                    pop(queue)
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
        """State contract (see docs/CHECKPOINTS.md): every scheduler
        tier, the clock, the seq counter and the RNG registry pickle
        verbatim, and so do the options (a restored run runs as it was
        built, whatever the restoring process's environment); the
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

    def snapshot(self) -> bytes:
        """Serialize the complete simulation state (this simulator and
        everything reachable from its queued events) to bytes.  See
        :mod:`repro.snapshot`."""
        from repro.snapshot import snapshot_simulator

        return snapshot_simulator(self)

    @classmethod
    def restore(cls, blob: bytes) -> "Simulator":
        """Rebuild a simulator from :meth:`snapshot` output."""
        from repro.snapshot import restore_simulator

        return restore_simulator(blob)

    def stop(self) -> None:
        """Request the current ``run`` call to return after the executing
        event completes.  The run loop reads the flag before it looks at
        the next event, so nothing is taken off a tier: every later
        event stays pending for the next ``run`` call."""
        self._stop_requested = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(t={format_time(self.clock.now)}, "
            f"fired={self._events_fired}, pending={self.pending_events})"
        )
