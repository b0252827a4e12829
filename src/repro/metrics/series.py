"""Time-series extraction from timeline events."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.obs.tracer import TimelineTracer


@dataclass
class StepSeries:
    """A piecewise-constant series (e.g. peerview size over time)."""

    times: List[float]
    values: List[float]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        for earlier, later in zip(self.times, self.times[1:]):
            if later < earlier:
                raise ValueError("times must be non-decreasing")

    def value_at(self, t: float) -> float:
        """Value of the last step at or before ``t`` (0 before start)."""
        index = bisect.bisect_right(self.times, t) - 1
        if index < 0:
            return 0.0
        return self.values[index]

    def sampled(self, at_times: Sequence[float]) -> List[float]:
        return [self.value_at(t) for t in at_times]

    def plateau(self, duration: float) -> float:
        """Mean over the last quarter of ``duration`` (the peerview's
        phase 3), sampled at eleven evenly spaced times."""
        values = self.sampled([duration * (0.75 + 0.25 * i / 10) for i in range(11)])
        return sum(values) / len(values)

    @property
    def final(self) -> float:
        return self.values[-1] if self.values else 0.0

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def time_of_max(self) -> float:
        if not self.values:
            return 0.0
        index = self.values.index(max(self.values))
        return self.times[index]


def peerview_size_series(log: TimelineTracer, actor: str) -> StepSeries:
    """Reconstruct ``l(t)`` for one rendezvous from the ``view.add`` /
    ``view.remove`` events recorded under ``actor`` (the paper's
    Figure 3 left / Figure 4 left curves)."""
    times: List[float] = [0.0]
    values: List[float] = [0.0]
    size = 0
    events = [
        e for e in log.events
        if e.actor == actor and e.cat == "peerview"
        and e.name in ("view.add", "view.remove")
    ]
    events.sort(key=lambda e: e.t)
    for event in events:
        size += 1 if event.name == "view.add" else -1
        times.append(event.t)
        values.append(float(size))
    return StepSeries(times, values)


def convergence_ratio_series(log: TimelineTracer) -> StepSeries:
    """Overlay-wide Property (2) convergence: mean ``l / (r_up − 1)``
    per emission round, from the invariant checker's
    ``invariant``/``convergence`` events."""
    events = sorted(
        (e for e in log.events
         if e.cat == "invariant" and e.name == "convergence"),
        key=lambda e: e.t,
    )
    times: List[float] = []
    values: List[float] = []
    # aggregate one value per probe-round instant (events at the same
    # emission time are averaged across observers)
    i = 0
    while i < len(events):
        j = i
        total = 0.0
        while j < len(events) and events[j].t == events[i].t:
            total += events[j].args["value"]
            j += 1
        times.append(events[i].t)
        values.append(total / (j - i))
        i = j
    return StepSeries(times, values)


def sample_at(series: StepSeries, start: float, stop: float, step: float) -> Tuple[List[float], List[float]]:
    """Sample a step series on a regular grid (inclusive of ``stop``)."""
    if step <= 0:
        raise ValueError(f"step must be > 0 (got {step})")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    xs = [start + i * step for i in range(max(count, 0))]
    return xs, series.sampled(xs)


def elementwise_mean_std(
    rows: Sequence[Sequence[float]],
) -> Tuple[List[float], List[float]]:
    """Element-wise mean and sample std (ddof=1; 0 for one row) over
    equal-length rows — e.g. the same sampled l(t) curve across seeds,
    for the campaign aggregator's cross-seed series."""
    if not rows:
        raise ValueError("no rows")
    length = len(rows[0])
    for row in rows:
        if len(row) != length:
            raise ValueError("rows must have equal length")
    n = len(rows)
    means: List[float] = []
    stds: List[float] = []
    for i in range(length):
        column = [row[i] for row in rows]
        mean = sum(column) / n
        means.append(mean)
        if n == 1:
            stds.append(0.0)
        else:
            var = sum((v - mean) ** 2 for v in column) / (n - 1)
            stds.append(math.sqrt(var))
    return means, stds
