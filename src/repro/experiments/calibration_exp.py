"""Calibration sensitivity: the DESIGN.md §5b constants, swept.

The reproduction pins two protocol details the paper's pseudo-code
leaves implicit: how many advertisements a referral carries
(``referral_count`` = 3) and how many members beyond the neighbours
each iteration refresh-probes (``random_probe_count`` = 1).  This
ablation sweeps both at fixed r and reports the peerview peak, plateau
and bandwidth, showing (a) how the published curves constrain the
choice and (b) how sensitive the headline results are to it.

Expected structure: ``referral_count`` drives phase-1 growth (peak),
``random_probe_count`` drives steady-state refresh (plateau); the
calibrated pair reproduces the paper's r = 80 behaviour (peak touching
~79, plateau ≈ 74).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import PlatformConfig
from repro.experiments.common import run_peerview_overlay
from repro.metrics import render_table
from repro.metrics.series import peerview_size_series
from repro.sim import MINUTES


@dataclass
class CalibrationPoint:
    r: int
    referral_count: int
    random_probe_count: int
    peak: float
    peak_minutes: float
    plateau: float
    kbps_per_rdv: float


def run_point(
    r: int,
    referral_count: int,
    random_probe_count: int,
    duration: float = 60 * MINUTES,
    seed: int = 1,
) -> CalibrationPoint:
    config = PlatformConfig().with_overrides(
        referral_count=referral_count,
        random_probe_count=random_probe_count,
    )
    result = run_peerview_overlay(
        r=r, duration=duration, seed=seed, config=config
    )
    series = peerview_size_series(result.log, "rdv-0")
    network = result.overlay.group.network
    return CalibrationPoint(
        r=r,
        referral_count=referral_count,
        random_probe_count=random_probe_count,
        peak=series.max(),
        peak_minutes=series.time_of_max() / 60.0,
        plateau=series.plateau(duration),
        kbps_per_rdv=network.stats.bytes_sent * 8.0 / duration / r / 1000.0,
    )


#: keyword arguments of :func:`run` per size: the referral_count x
#: random_probe_count grid
SIZES = {
    size: {"r": r, "referral_counts": (1, 3, 5),
           "random_probe_counts": (0, 1, 2), "duration": duration}
    for size, r, duration in (("ci", 40, 40 * MINUTES), ("full", 80, 60 * MINUTES))
}


def run(
    r: int,
    referral_counts: Sequence[int],
    random_probe_counts: Sequence[int],
    duration: float = 60 * MINUTES,
    seed: int = 1,
) -> List[CalibrationPoint]:
    out: List[CalibrationPoint] = []
    for rc in referral_counts:
        for rpc in random_probe_counts:
            print(
                f"# referral_count={rc} random_probe_count={rpc} ...",
                flush=True,
            )
            out.append(run_point(r, rc, rpc, duration=duration, seed=seed))
    print(render(out))
    return out


def render(points: List[CalibrationPoint]) -> str:
    rows = [
        [
            p.referral_count,
            p.random_probe_count,
            f"{p.peak:.0f}",
            f"{p.peak_minutes:.0f}",
            f"{p.plateau:.0f}",
            f"{p.kbps_per_rdv:.1f}",
        ]
        for p in points
    ]
    r = points[0].r if points else 0
    return (
        f"Calibration sensitivity (r = {r}, defaults marked by "
        "referral_count=3 / random_probe_count=1)\n\n"
        + render_table(
            [
                "referral_count", "random_probes", "peak l",
                "peak t (min)", "plateau l", "kbit/s per rdv",
            ],
            rows,
        )
    )
