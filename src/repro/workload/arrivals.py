"""Arrival process: when do requests happen.

Every client's schedule is a homogeneous Poisson process built by the
*time-change* construction: the RNG stream yields a unit-rate Poisson
process ``S_1 < S_2 < ...`` (cumulative ``expovariate(1.0)`` gaps), and
arrival ``k`` fires at ``start + S_k / rate``.  Two properties fall
out:

* **seed determinism** — the arrival schedule is a pure function of
  the RNG stream and the rate; no wall clock, no global state;
* **monotone rate scaling** — a higher rate can only move every
  ``t_k`` earlier, so the number of arrivals in any window is
  non-decreasing in the rate (the hypothesis suite pins this).

The process is described by a JSON-able spec dict (``{"kind":
"poisson", "rate": 5.0}``) so it embeds directly in
:class:`~repro.workload.spec.WorkloadSpec` and campaign grids;
:func:`make_arrivals` is the factory and the schema check.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Any, Dict, Iterator


class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate`` per second."""

    KIND = "poisson"

    def __init__(self, rate: float) -> None:
        if not 0 < rate < math.inf:
            raise ValueError(f"rate must be a finite number > 0 (got {rate})")
        self.rate = float(rate)

    def iter_times(self, rng, start: float, horizon: float) -> Iterator[float]:
        """Yield strictly increasing arrival times in ``(start,
        horizon]``, drawn from ``rng`` (a named stream from
        :class:`~repro.sim.rng.RngRegistry`)."""
        # unit-rate cumulative sums scaled by 1/rate: for a fixed
        # stream, a higher rate yields a superset of arrival times
        expovariate = rng.expovariate
        s = 0.0
        inv = 1.0 / self.rate
        while True:
            s += expovariate(1.0)
            t = start + s * inv
            if t > horizon:
                return
            yield t


def make_arrivals(spec: Dict[str, Any]) -> PoissonArrivals:
    """Build the arrival process a spec dict describes.

    The one schema is ``{"kind": "poisson", "rate": <number > 0>}``; any
    other shape raises :class:`ValueError` naming the offending field.
    """
    if "kind" not in spec:
        raise ValueError(f"arrival spec needs a 'kind' field (got {spec})")
    kind = spec["kind"]
    if kind != PoissonArrivals.KIND:
        raise ValueError(
            f"unknown arrival kind {kind!r} (known: [{PoissonArrivals.KIND!r}])"
        )
    unknown = sorted(set(spec) - {"kind", "rate"})
    if unknown:
        raise ValueError(f"unknown arrival spec field(s) {unknown}")
    if "rate" not in spec:
        raise ValueError(f"arrival spec needs a 'rate' field (got {spec})")
    rate = spec["rate"]
    if isinstance(rate, bool) or not isinstance(rate, Real):
        raise ValueError(f"arrival 'rate' must be a number (got {rate!r})")
    return PoissonArrivals(rate)
