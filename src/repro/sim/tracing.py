"""Kernel event tracing: the run's event-trace fingerprint.

A :class:`KernelTraceRecorder` hooks a :class:`Simulator` and records
every fired event as ``(time, label)``; its :meth:`digest` is what the
determinism, snapshot and fuzz suites compare.  The wire view (every
``Network.send`` with endpoints, payload type and size) is the
``endpoint`` category of the :mod:`repro.obs` timeline tracer.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from repro.sim.kernel import EventHandle, Simulator


class KernelTraceRecorder:
    """Record every fired kernel event as ``(time, label)``.

    The event-trace fingerprint of a run: two simulations with the
    same seed and scenario must produce *identical* recordings, which
    is what the determinism regression tests assert (and what makes
    fault scenarios replayable for debugging).  Labels rather than
    callables are recorded so traces compare across processes.
    """

    def __init__(self, sim: Simulator, limit: int = 2_000_000) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1 (got {limit})")
        self.sim = sim
        self.limit = limit
        self.entries: List[Tuple[float, str]] = []
        self.truncated = False
        sim.add_trace_hook(self._on_event, phases=("fire",))

    def _on_event(self, now: float, phase: str, handle: EventHandle) -> None:
        if len(self.entries) < self.limit:
            self.entries.append((now, handle.label))
        else:
            self.truncated = True

    def detach(self) -> None:
        self.sim.remove_trace_hook(self._on_event)

    def __len__(self) -> int:
        return len(self.entries)

    def digest(self) -> str:
        """SHA-256 over the whole trace — a compact equality witness."""
        return trace_digest(self.entries)


def trace_digest(entries: List[Tuple[float, str]]) -> str:
    """SHA-256 over one ``f"{time!r}:{label}\\n"`` line per entry."""
    body = "".join([f"{time!r}:{label}\n" for time, label in entries])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
