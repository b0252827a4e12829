"""Figure 4 (left): peerview size for r = 50 vs PVE_EXPIRATION.

"The Figure 4 shows the evolution of the value of [l] on a rendezvous
peer (with r = 50), according to two different values for the constant
PVE_EXPIRATION.  By changing this constant to a time greater than the
duration of the experiment (60 minutes in our case), l reaches its
maximum possible value: r − 1, which in our case is 49.  In Property
(2), t1 is therefore equal to 17 minutes."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import PlatformConfig
from repro.experiments.common import run_peerview_overlay
from repro.metrics import render_series
from repro.metrics.series import StepSeries, peerview_size_series, sample_at
from repro.sim import MINUTES

#: keyword arguments of :func:`run` per size: the paper's own run is
#: already small, so both sizes are r = 50 over 60 minutes
SIZES = {
    "ci": {"r": 50, "duration": 60 * MINUTES},
    "full": {"r": 50, "duration": 60 * MINUTES},
}


@dataclass
class Fig4LeftResult:
    r: int
    duration: float
    default_series: StepSeries
    tuned_series: StepSeries
    tuned_expiration: float

    def t1_minutes(self) -> Optional[float]:
        """Time at which the tuned run reaches l = r − 1 (the paper's
        t1 of Property (2)), or None if never."""
        target = float(self.r - 1)
        for t, v in zip(self.tuned_series.times, self.tuned_series.values):
            if v >= target:
                return t / 60.0
        return None

    def tuned_holds_max(self) -> bool:
        """Does the tuned run hold l = r − 1 through the end?"""
        return self.tuned_series.final >= self.r - 1

    def default_decays(self) -> bool:
        """Does the default run fall below its peak after reaching it?

        Property (2) demands ``l = g`` for *all* t2 > t1; a single dip
        below the peak violates it, even if the view later bounces back
        (it fluctuates — the paper's phase 3)."""
        peak = self.default_series.max()
        if peak <= 0:
            return False
        peak_time = self.default_series.time_of_max()
        post_peak = [
            v for t, v in zip(
                self.default_series.times, self.default_series.values
            )
            if t > peak_time
        ]
        return bool(post_peak) and min(post_peak) < peak


def run(
    r: int = 50,
    duration: float = 60 * MINUTES,
    seed: int = 1,
) -> Fig4LeftResult:
    """Two runs differing only in PVE_EXPIRATION: the JXTA-C default
    (20 min) and a value greater than the experiment duration."""
    tuned = duration + 30 * MINUTES
    default_run = run_peerview_overlay(r=r, duration=duration, seed=seed)
    tuned_run = run_peerview_overlay(
        r=r, duration=duration, seed=seed,
        config=PlatformConfig().with_overrides(pve_expiration=tuned),
    )
    result = Fig4LeftResult(
        r=r,
        duration=duration,
        default_series=peerview_size_series(default_run.log, "rdv-0"),
        tuned_series=peerview_size_series(tuned_run.log, "rdv-0"),
        tuned_expiration=tuned,
    )
    print(render(result))
    return result


def render(result: Fig4LeftResult) -> str:
    xs_s, default_vals = sample_at(
        result.default_series, 0.0, result.duration, 2 * MINUTES
    )
    _, tuned_vals = sample_at(
        result.tuned_series, 0.0, result.duration, 2 * MINUTES
    )
    xs = [x / 60.0 for x in xs_s]
    series_text = render_series(
        "t(min)",
        xs,
        {
            "default PVE_EXPIRATION (20min)": default_vals,
            f"tuned PVE_EXPIRATION ({result.tuned_expiration / 60:.0f}min)": tuned_vals,
        },
        "{:.0f}",
    )
    t1 = result.t1_minutes()
    return (
        f"Figure 4 (left) — peerview size for r = {result.r} vs PVE_EXPIRATION\n\n"
        + series_text
        + "\n\n"
        + f"tuned run reaches l = {result.r - 1} at t1 = "
        + (f"{t1:.0f} min" if t1 is not None else "never")
        + f" (paper: 17 min) and holds it: {result.tuned_holds_max()}\n"
        + f"default run decays after its peak: {result.default_decays()}"
    )
