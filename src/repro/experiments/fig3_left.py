"""Figure 3 (left): evolution of the peerview size l according to r.

"The left side of Figure 3 shows the evolution of l according to r.
Both chains (r equals to 10, 45, 50, 80, 160, 580) and trees (160,
220, 338) topologies have been tested, revealing this initial
parameter has no significant influence on the peerview behavior."

For each configuration this experiment runs the overlay with default
JXTA-C parameters, logs peerview add/remove events on an observer
rendezvous, and reports l(t) sampled on a regular grid, plus the
summary statistics the paper discusses (peak value, time of peak,
whether the maximal value r−1 was reached, the phase-3 plateau).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import run_peerview_overlay
from repro.metrics import render_series
from repro.metrics.series import StepSeries, peerview_size_series, sample_at
from repro.sim import MINUTES

#: keyword arguments of :func:`run` per size: ``configs`` are (r,
#: topology) pairs, the full set being the paper's
SIZES = {
    "ci": {
        "configs": ((10, "chain"), (45, "chain"), (50, "chain"), (80, "chain"),
                    (80, "tree")),
        "duration": 60 * MINUTES,
    },
    "full": {
        "configs": ((10, "chain"), (45, "chain"), (50, "chain"), (80, "chain"),
                    (160, "chain"), (580, "chain"), (160, "tree"), (220, "tree"),
                    (338, "tree")),
        "duration": 120 * MINUTES,
    },
}


@dataclass
class Fig3LeftSeries:
    """One curve of the figure."""

    r: int
    topology: str
    #: simulated seconds the run lasted
    duration: float
    series: StepSeries
    final_sizes: List[int]

    @property
    def label(self) -> str:
        return f"{self.r}-{self.topology}"

    @property
    def reached_max(self) -> bool:
        """Did l ever reach the maximal possible value r − 1?"""
        return self.series.max() >= self.r - 1

    @property
    def peak(self) -> float:
        return self.series.max()

    @property
    def peak_time_minutes(self) -> float:
        return self.series.time_of_max() / 60.0

    def plateau(self) -> float:
        """Mean of l over the last quarter of the run (phase 3)."""
        return self.series.plateau(self.duration)


def run(
    configs: Sequence[Tuple[int, str]],
    duration: float = 60 * MINUTES,
    seed: int = 1,
) -> List[Fig3LeftSeries]:
    """Run every (r, topology) configuration, collect the l(t) curves
    and print them."""
    out: List[Fig3LeftSeries] = []
    for r, topology in configs:
        print(f"# running r={r} topology={topology} ...", flush=True)
        result = run_peerview_overlay(
            r=r, topology=topology, duration=duration, seed=seed
        )
        out.append(
            Fig3LeftSeries(
                r=r,
                topology=topology,
                duration=duration,
                series=peerview_size_series(result.log, "rdv-0"),
                final_sizes=sorted(result.overlay.group.peerview_sizes()),
            )
        )
    print(render(out))
    return out


def render(results: List[Fig3LeftSeries]) -> str:
    """Paper-style output: l(t) columns per configuration plus the
    summary table."""
    duration = max((res.duration for res in results), default=0.0)
    step = 2 * MINUTES if duration <= 70 * MINUTES else 5 * MINUTES
    xs = None
    columns: Dict[str, List[float]] = {}
    for res in results:
        xs_minutes, values = sample_at(res.series, 0.0, duration, step)
        xs = [x / 60.0 for x in xs_minutes]
        columns[res.label] = values
    series_text = render_series("t(min)", xs or [], columns, "{:.0f}")

    from repro.analysis import detect_phases
    from repro.metrics import render_table

    rows = []
    for res in results:
        phases = detect_phases(res.series, res.duration)
        rows.append(
            [
                res.r,
                res.topology,
                f"{res.peak:.0f}",
                f"{res.peak_time_minutes:.0f}",
                "yes" if res.reached_max else "no",
                f"{res.plateau():.0f}",
                f"{phases.fluctuation_start / 60:.0f}" if phases else "-",
                f"{phases.plateau_std:.1f}" if phases else "-",
            ]
        )
    summary = render_table(
        [
            "r", "topology", "peak l", "peak t (min)", "reached r-1",
            "plateau l", "phase3 t (min)", "plateau sigma",
        ],
        rows,
    )
    return (
        "Figure 3 (left) — evolution of peerview size l(t)\n\n"
        + series_text
        + "\n\nSummary\n"
        + summary
    )
