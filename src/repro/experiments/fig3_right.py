"""Figure 3 (right): distribution of add and remove events.

"The right side of Figure 3 shows the distribution of adding and
removal events [...] of rendezvous peers in the local peerview of a
rendezvous peer (where r = 580).  More precisely, on the y axis is
shown the number of a given rendezvous peer: for each new rendezvous
peer added in the peerview, a number is given to the rendezvous peer
starting from 1."

The experiment reproduces both published observations:

* phase 1: only add events, lasting PVE_EXPIRATION;
* phase 2: mixed add/remove events from PVE_EXPIRATION on;
* near-complete discovery — the paper's observer numbered 577 of 579
  possible rendezvous by minute 117.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import PlatformConfig
from repro.experiments.common import run_peerview_overlay
from repro.sim import MINUTES

#: keyword arguments of :func:`run` per size (the paper's is r = 580)
SIZES = {
    "ci": {"r": 60, "duration": 60 * MINUTES},
    "full": {"r": 580, "duration": 120 * MINUTES},
}


@dataclass
class Fig3RightResult:
    """Scatter points and phase statistics."""

    r: int
    duration: float
    pve_expiration: float
    #: (time, rendezvous-number) for each add event
    add_points: List[Tuple[float, int]]
    #: (time, rendezvous-number) for each remove event
    remove_points: List[Tuple[float, int]]

    @property
    def first_remove_time(self) -> float:
        if not self.remove_points:
            return float("inf")
        return min(t for t, _ in self.remove_points)

    @property
    def distinct_discovered(self) -> int:
        """How many distinct rendezvous the observer ever numbered."""
        return max((n for _, n in self.add_points), default=0)

    @property
    def max_possible(self) -> int:
        return self.r - 1


def run(
    r: int = 580,
    duration: float = 120 * MINUTES,
    seed: int = 1,
) -> Fig3RightResult:
    """Run the r-rendezvous overlay and number each newly added
    rendezvous in order of first appearance, as the paper does."""
    result = run_peerview_overlay(r=r, duration=duration, seed=seed)
    numbers: Dict[str, int] = {}
    add_points: List[Tuple[float, int]] = []
    remove_points: List[Tuple[float, int]] = []
    for event in result.log.events:
        peer = event.args["peer"]
        if event.name == "view.add":
            if peer not in numbers:
                numbers[peer] = len(numbers) + 1
            add_points.append((event.t, numbers[peer]))
        elif event.name == "view.remove":
            remove_points.append((event.t, numbers.get(peer, 0)))
    out = Fig3RightResult(
        r=r,
        duration=duration,
        pve_expiration=PlatformConfig().pve_expiration,
        add_points=add_points,
        remove_points=remove_points,
    )
    print(render(out))
    return out


def render(result: Fig3RightResult) -> str:
    lines = [
        "Figure 3 (right) — add/remove event distribution "
        f"(r = {result.r})",
        "",
        f"add events:            {len(result.add_points)}",
        f"remove events:         {len(result.remove_points)}",
        f"first remove at:       {result.first_remove_time / 60:.1f} min "
        f"(PVE_EXPIRATION = {result.pve_expiration / 60:.0f} min)",
        f"distinct rdvs seen:    {result.distinct_discovered} "
        f"of {result.max_possible} possible",
        "",
        "event counts per 10-minute bucket (add / remove):",
    ]
    buckets = int(result.duration // (10 * MINUTES)) + 1
    for b in range(buckets):
        lo, hi = b * 10 * MINUTES, (b + 1) * 10 * MINUTES
        adds = sum(1 for t, _ in result.add_points if lo <= t < hi)
        removes = sum(1 for t, _ in result.remove_points if lo <= t < hi)
        lines.append(f"  {b * 10:3d}-{b * 10 + 10:3d} min: {adds:5d} / {removes:5d}")
    return "\n".join(lines)
