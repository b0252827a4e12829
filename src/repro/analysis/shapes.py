"""Curve-shape statistics (least squares, phases, plateaus)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.metrics.series import StepSeries


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope·x + intercept``."""

    slope: float
    intercept: float
    #: Coefficient of determination in [0, 1].
    r_squared: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Fit a line; used e.g. to verify the O(r) regime of Figure 4
    (right) is genuinely linear."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("xs and ys must have equal length")
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def relative_spread(values: Sequence[float]) -> float:
    """max−min over mean: how homogeneous peers' curves are (the paper:
    "the value l of each rendezvous peer evolves in the same way")."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    mean = float(arr.mean())
    if mean == 0:
        return 0.0
    return float((arr.max() - arr.min()) / mean)


@dataclass(frozen=True)
class PhaseBoundaries:
    """The three phases of the peerview size evolution (§4.1)."""

    #: End of the monotone-growth phase (time of reaching ~peak).
    growth_end: float
    #: Start of the fluctuation phase (series stays within the plateau
    #: band from here on).
    fluctuation_start: float
    peak: float
    plateau_mean: float
    plateau_std: float


def detect_phases(
    series: StepSeries,
    duration: float,
) -> Optional[PhaseBoundaries]:
    """Locate the paper's three peerview phases in ``l(t)``.

    Phase 1 ends at the (first) global peak; phase 3 starts at the
    earliest time after the peak from which the series never leaves
    ``plateau_mean ± 3 · plateau_std`` (the plateau band is
    estimated from the final quarter of the run).  Returns None when
    the series is too short or never grows.
    """
    if not series.values or series.max() <= 0:
        return None
    grid = np.linspace(0.0, duration, 400)
    values = np.asarray(series.sampled(list(grid)))

    peak_index = int(values.argmax())
    growth_end = float(grid[peak_index])
    peak = float(values[peak_index])

    tail = values[int(400 * 0.75):]
    plateau_mean = float(tail.mean())
    plateau_std = float(tail.std())
    band = 3.0 * max(plateau_std, 0.5)

    inside = np.abs(values - plateau_mean) <= band
    fluctuation_start = duration
    # walk backwards: the fluctuation phase is the longest suffix that
    # stays inside the band
    for i in range(len(grid) - 1, -1, -1):
        if not inside[i]:
            fluctuation_start = float(grid[min(i + 1, len(grid) - 1)])
            break
    else:
        fluctuation_start = 0.0

    return PhaseBoundaries(
        growth_end=growth_end,
        fluctuation_start=fluctuation_start,
        peak=peak,
        plateau_mean=plateau_mean,
        plateau_std=plateau_std,
    )
