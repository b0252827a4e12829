"""Timer-driven processes.

JXTA services are periodic by nature (the peerview loop runs every
``PEERVIEW_INTERVAL``, edges push SRDI deltas every 30 s, leases renew
before expiry).  :class:`PeriodicTask` captures that pattern once:
start/stop lifecycle and optional start jitter (real deployments never
start perfectly in phase — ADAGE launches peers over several seconds).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.errors import SchedulingError
from repro.sim.kernel import EventHandle, Simulator


class Process:
    """Base class for simulation actors with a start/stop lifecycle."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or type(self).__name__
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        """Start the process (idempotent errors are surfaced loudly)."""
        if self._started:
            raise SchedulingError(f"{self.name} already started")
        self._started = True
        self.on_start()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.on_stop()

    def on_start(self) -> None:  # pragma: no cover - subclass hook
        """Subclass hook invoked when the process starts."""

    def on_stop(self) -> None:  # pragma: no cover - subclass hook
        """Subclass hook invoked when the process stops."""


class PeriodicTask(Process):
    """Invoke a callback every ``interval`` simulated seconds.

    Parameters
    ----------
    interval:
        Period between invocations, in seconds.
    callback:
        Zero-argument callable run at each tick.
    start_jitter:
        If > 0, the first tick is delayed by a uniform draw from
        ``[0, start_jitter)`` using the task's named RNG stream, which
        desynchronizes peers exactly like a staggered real deployment.
    immediate:
        If True the first tick fires at the (possibly jittered) start
        instant rather than one full interval later.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        name: str = "",
        start_jitter: float = 0.0,
        immediate: bool = False,
    ) -> None:
        super().__init__(sim, name or "periodic")
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        if start_jitter < 0:
            raise ValueError(f"start_jitter must be >= 0 (got {start_jitter})")
        self.interval = float(interval)
        self.callback = callback
        self.start_jitter = float(start_jitter)
        self.immediate = immediate
        self.ticks = 0
        self._handle: Optional[EventHandle] = None

    def on_start(self) -> None:
        jitter = 0.0
        if self.start_jitter > 0:
            # one draw per start: the registry keeps a count, not a stream
            jitter = self.sim.rng.next_uniform(
                f"jitter:{self.name}", 0.0, self.start_jitter
            )
        first = jitter if self.immediate else jitter + self.interval
        self._handle = self.sim.schedule(first, self._tick, label=f"{self.name}.tick")

    def on_stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if not self.started:
            return
        self.ticks += 1
        self._handle = self.sim.schedule(
            self.interval, self._tick, label=f"{self.name}.tick"
        )
        self.callback()
