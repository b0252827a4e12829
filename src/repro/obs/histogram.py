"""Fixed-bucket histograms with a mergeable, conservation-checked API.

Buckets are defined by a tuple of ascending upper edges; values above
the last edge land in an overflow bucket.  Fixed edges keep recording
O(log buckets) (one bisect) and make :meth:`Histogram.merge` exact —
two histograms with identical edges merge by elementwise addition, the
same shape as the elementwise-mean contract in
:func:`repro.metrics.series.elementwise_mean_std`.

Quantiles from bucketed data are interval estimates: the true q-th
quantile lies inside the bucket that contains it, so
:meth:`Histogram.quantile_bounds` returns that bucket's ``(lo, hi)``
edges clamped by the observed min/max, and :meth:`Histogram.quantile`
returns the conservative upper bound.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Wire latencies in this reproduction span ~1 ms (intra-site) to tens
# of seconds (retry storms); 1ms..~65s in powers of two.
DEFAULT_LATENCY_EDGES_S: Tuple[float, ...] = tuple(
    0.001 * 2**i for i in range(17)
)


class Histogram:
    """A fixed-bucket histogram: counts per bucket plus count/sum/min/max."""

    __slots__ = ("edges", "counts", "overflow", "count", "total", "min", "max")

    def __init__(self, edges: Sequence[float] = DEFAULT_LATENCY_EDGES_S) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"edges must be strictly ascending (got {edges})")
        self.edges = edges
        self.counts: List[int] = [0] * len(edges)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        i = bisect_left(self.edges, value)
        if i < len(self.counts):
            self.counts[i] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # ------------------------------------------------------------------
    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (edges must match)."""
        if other.edges != self.edges:
            raise ValueError(
                f"cannot merge histograms with different edges "
                f"({len(self.edges)} vs {len(other.edges)} buckets)"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        for v in (other.min,):
            if v is not None and (self.min is None or v < self.min):
                self.min = v
        for v in (other.max,):
            if v is not None and (self.max is None or v > self.max):
                self.max = v

    @classmethod
    def merged(cls, histograms: Iterable["Histogram"]) -> "Histogram":
        histograms = list(histograms)
        if not histograms:
            raise ValueError("nothing to merge")
        out = cls(histograms[0].edges)
        for h in histograms:
            out.merge(h)
        return out

    # ------------------------------------------------------------------
    def quantile_bounds(self, q: float) -> Tuple[float, float]:
        """``(lo, hi)`` bracketing the q-th quantile, from bucket edges.

        ``lo`` is the lower edge of the bucket holding the quantile
        (or the observed min for the first bucket / a tighter observed
        min), ``hi`` its upper edge (observed max for overflow).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1] (got {q})")
        if self.count == 0:
            raise ValueError("empty histogram has no quantiles")
        # rank of the q-th order statistic, 1-based, ceil semantics
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                lo = self.edges[i - 1] if i > 0 else (self.min if self.min is not None else 0.0)
                hi = self.edges[i]
                break
        else:
            lo = self.edges[-1]
            hi = self.max if self.max is not None else self.edges[-1]
        # observed extremes can only tighten the bracket
        if self.min is not None:
            lo = max(lo, self.min)
        if self.max is not None:
            hi = min(hi, self.max)
        if lo > hi:
            lo = hi
        return (lo, hi)

    def quantile(self, q: float) -> float:
        """Conservative (upper-bound) quantile estimate."""
        return self.quantile_bounds(q)[1]

    # Convenience accessors for the quantiles SLO reports quote.  Each
    # is the conservative upper bound of the bracketing bucket: the
    # true order statistic lies in [quantile_bounds(q)[0], pXX].
    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable state (deterministic key order)."""
        return {
            "count": self.count,
            "counts": list(self.counts),
            "edges": list(self.edges),
            "max": self.max,
            "min": self.min,
            "overflow": self.overflow,
            "sum": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, buckets={len(self.edges)})"
