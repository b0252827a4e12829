"""Timeline tracer: a bounded ring buffer of protocol/kernel events.

Events carry ``(t, cat, name, actor, args)`` where ``cat`` is the
protocol layer ("peerview", "lease", "resolver", "discovery", "srdi",
"endpoint", or "kernel" for scheduler fires) and ``actor`` the
transport address of the peer that recorded it.  The buffer is a
``deque(maxlen=...)``: a full-scale r=580 run keeps the *tail* of the
timeline and counts what it dropped, so tracing can stay on without
unbounded memory.

Two exports:

* JSONL — one sorted-key JSON object per line; the canonical form the
  golden-trace fixtures pin (see ``tests/fixtures/golden/``).
* Chrome ``trace_event`` JSON — instant events on one track per actor,
  loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional

DEFAULT_CAPACITY = 500_000


@dataclass(frozen=True)
class TraceEvent:
    """One recorded timeline event."""

    t: float
    cat: str
    name: str
    actor: str = ""
    args: Optional[Dict[str, Any]] = None

    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "actor": self.actor,
            "cat": self.cat,
            "name": self.name,
            "t": self.t,
        }
        if self.args:
            payload["args"] = self.args
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TimelineTracer:
    """Bounded ring-buffer recorder for timeline events."""

    __slots__ = ("capacity", "categories", "events", "dropped")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1 (got {capacity})")
        self.capacity = capacity
        self.categories = frozenset(categories) if categories else None
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    # -------------------------------------------------------- hot path
    def record(
        self,
        t: float,
        cat: str,
        name: str,
        actor: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self.categories is not None and cat not in self.categories:
            return
        events = self.events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(TraceEvent(t, cat, name, actor, args))

    def on_kernel_event(self, now: float, phase: str, handle) -> None:
        """Feed for :meth:`repro.sim.kernel.Simulator.add_trace_hook`."""
        self.record(now, "kernel", handle.label)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def to_jsonl_lines(self) -> List[str]:
        return [e.to_json() for e in self.events]

    # ------------------------------------------------------------------
    def chrome_trace_events(self, pid: int = 1) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` dicts (instant events, one tid/actor)."""
        actor_tids: Dict[str, int] = {}
        out: List[Dict[str, Any]] = []
        for e in self.events:
            tid = actor_tids.get(e.actor)
            if tid is None:
                tid = actor_tids[e.actor] = len(actor_tids) + 1
            ev: Dict[str, Any] = {
                "name": e.name,
                "cat": e.cat,
                "ph": "i",
                "s": "t",
                "ts": round(e.t * 1_000_000),  # trace_event wants microseconds
                "pid": pid,
                "tid": tid,
            }
            if e.args:
                ev["args"] = e.args
            out.append(ev)
        # thread_name metadata rows give each actor a labelled track
        for actor, tid in sorted(actor_tids.items(), key=lambda kv: kv[1]):
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": actor or "(kernel)"},
                }
            )
        return out

    def to_chrome_trace(self) -> Dict[str, Any]:
        return {
            "displayTimeUnit": "ms",
            "traceEvents": self.chrome_trace_events(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimelineTracer(events={len(self.events)}, dropped={self.dropped})"


def peerview_event_args(event) -> Dict[str, str]:
    """The ``args`` of a ``peerview``/``view.<kind>`` timeline event
    for a :class:`~repro.rendezvous.peerview.PeerViewEvent`: the subject
    peer's short ID and, for a removal with a cause, the reason."""
    args = {"peer": event.subject.short()}
    if event.reason:
        args["reason"] = event.reason
    return args


class PeerViewRecorder:
    """Peerview listener that records every add/remove into a tracer
    as ``("peerview", "view.add" | "view.remove", actor, args)`` — the
    §4.1 log Figures 3 and 4 are drawn from.  A class, not a closure:
    the listener list rides along in simulation snapshots."""

    __slots__ = ("tracer", "actor")

    def __init__(self, tracer: TimelineTracer, actor: str) -> None:
        self.tracer = tracer
        self.actor = actor

    def __call__(self, event) -> None:
        self.tracer.record(
            event.time, "peerview", f"view.{event.kind}", self.actor,
            peerview_event_args(event),
        )


def merged_chrome_trace(tracers: Iterable[TimelineTracer]) -> Dict[str, Any]:
    """One Chrome trace from many tracers (one pid per tracer/network)."""
    events: List[Dict[str, Any]] = []
    for pid, tracer in enumerate(tracers, start=1):
        events.extend(tracer.chrome_trace_events(pid=pid))
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"network-{pid}"},
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": events}
