"""Discrete-event simulation kernel.

This subpackage is the substrate that replaces the paper's wall-clock
Grid'5000 runs: a deterministic discrete-event engine with a simulated
clock, cancellable scheduled events, timer-driven processes and named
reproducible random streams.

The JXTA protocol stack built on top of it (``repro.rendezvous``,
``repro.discovery``, ...) only ever observes *simulated* time, so a
two-hour, 580-peer experiment from the paper executes in seconds of
real time while preserving every timer ordering and message latency
the protocols can perceive.
"""

from repro.sim.units import (
    HOURS,
    MILLISECONDS,
    MINUTES,
    SECONDS,
    format_time,
)
from repro.sim.errors import (
    SchedulingError,
    SimulationError,
    SimulationLimitExceeded,
)
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.process import PeriodicTask, Process
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "EventHandle",
    "HOURS",
    "MILLISECONDS",
    "MINUTES",
    "PeriodicTask",
    "Process",
    "RngRegistry",
    "SECONDS",
    "SchedulingError",
    "SimulationError",
    "SimulationLimitExceeded",
    "Simulator",
    "derive_seed",
    "format_time",
]
