"""Time-unit helpers for simulated time.

All simulation time is expressed in *seconds* as a ``float``.  The unit
constants below make protocol constants read like the paper's prose::

    PEERVIEW_INTERVAL = 30 * SECONDS
    PVE_EXPIRATION = 20 * MINUTES
"""

from __future__ import annotations

SECONDS: float = 1.0
MILLISECONDS: float = 1e-3
MICROSECONDS: float = 1e-6
MINUTES: float = 60.0
HOURS: float = 3600.0


def format_time(t: float) -> str:
    """Render a simulation time compactly for logs (``"17m03.250s"``)."""
    if t < 0:
        return "-" + format_time(-t)
    minutes, rem = divmod(t, 60.0)
    if minutes >= 1:
        return f"{int(minutes)}m{rem:06.3f}s"
    if rem >= 1:
        return f"{rem:.3f}s"
    return f"{rem * 1e3:.3f}ms"

