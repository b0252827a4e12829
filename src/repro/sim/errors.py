"""Exception hierarchy for the simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class SchedulingError(SimulationError):
    """An event was scheduled incorrectly (e.g. in the past)."""


class SimulationLimitExceeded(SimulationError):
    """The run exceeded a configured safety limit (events or time)."""
