"""Ablation: the PVE_EXPIRATION / PEERVIEW_INTERVAL trade-off (§4.1).

"A solution is to modify the value of the constant PVE_EXPIRATION
[...].  Another solution [...] is to decrease the interval of time
between each iteration of the peerview algorithm loop [...].  In all
cases, a compromise must be reached between freshness (and thereby
reliability of information in the peerview) on one side and bandwidth
consumption on the other side."

The sweep quantifies that compromise: for each (PVE_EXPIRATION,
PEERVIEW_INTERVAL) pair at fixed r it reports the final peerview
completeness and the peerview bandwidth consumed per rendezvous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config import PlatformConfig
from repro.experiments.common import run_peerview_overlay
from repro.metrics import render_table
from repro.sim import MINUTES, SECONDS

#: keyword arguments of :func:`run` per size: the PVE_EXPIRATION x
#: PEERVIEW_INTERVAL grid at fixed r
SIZES = {
    size: {"r": r, "duration": 60 * MINUTES,
           "expirations": (10 * MINUTES, 20 * MINUTES, 90 * MINUTES),
           "intervals": (15 * SECONDS, 30 * SECONDS, 60 * SECONDS)}
    for size, r in (("ci", 30), ("full", 80))
}


@dataclass
class AblationPoint:
    r: int
    pve_expiration: float
    peerview_interval: float
    min_l: int
    mean_l: float
    property_2: bool
    #: mean peerview protocol traffic per rendezvous, bytes/second
    bandwidth_bps_per_rdv: float


def run(
    r: int,
    duration: float,
    expirations: Sequence[float],
    intervals: Sequence[float],
    seed: int = 1,
) -> List[AblationPoint]:
    out: List[AblationPoint] = []
    for pve in expirations:
        for interval in intervals:
            print(
                f"# r={r} PVE_EXPIRATION={pve / 60:.0f}min "
                f"PEERVIEW_INTERVAL={interval:.0f}s ...",
                flush=True,
            )
            config = PlatformConfig().with_overrides(
                pve_expiration=pve, peerview_interval=interval
            )
            result = run_peerview_overlay(
                r=r, duration=duration, seed=seed, config=config
            )
            out.append(
                AblationPoint(
                    r=r,
                    pve_expiration=pve,
                    peerview_interval=interval,
                    **result.summary(),
                )
            )
    print(render(out))
    return out


def render(points: List[AblationPoint]) -> str:
    rows = []
    for p in points:
        rows.append(
            [
                f"{p.pve_expiration / 60:.0f}min",
                f"{p.peerview_interval:.0f}s",
                p.min_l,
                f"{p.mean_l:.1f}",
                "yes" if p.property_2 else "no",
                f"{p.bandwidth_bps_per_rdv / 1000:.1f}",
            ]
        )
    return (
        "Ablation — freshness vs bandwidth (r fixed)\n\n"
        + render_table(
            [
                "PVE_EXPIRATION", "PEERVIEW_INTERVAL", "min l",
                "mean l", "Property (2)", "kbit/s per rdv",
            ],
            rows,
        )
    )
