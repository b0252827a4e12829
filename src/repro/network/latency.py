"""One-way latency models.

The paper's testbed has two latency regimes:

* **intra-site**: Gigabit Ethernet inside a cluster — one-way delays of
  roughly 50–100 µs;
* **inter-site**: the RENATER WAN between French cities — one-way
  delays of a few milliseconds, roughly proportional to fibre distance.

:class:`Grid5000Latency` synthesizes the inter-site matrix from
great-circle distances at ~5 µs/km (speed of light in fibre with
routing detours) plus a per-hop router cost, which lands the values in
the published RTT range for Grid'5000 (≈4–20 ms RTT between sites).
Each draw applies a small multiplicative jitter so timings are not
implausibly exact.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.network.site import Site


class LatencyModel:
    """Interface: one-way delay between two sites, in seconds."""

    def delay(self, src: Site, dst: Site, rng: random.Random) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Same fixed delay for every pair (useful in unit tests)."""

    def __init__(self, delay_s: float) -> None:
        if delay_s < 0:
            raise ValueError(f"delay must be >= 0 (got {delay_s})")
        self.delay_s = float(delay_s)

    def delay(self, src: Site, dst: Site, rng: random.Random) -> float:
        return self.delay_s


class Grid5000Latency(LatencyModel):
    """Distance-derived two-regime latency model of Grid'5000/RENATER.

    Parameters
    ----------
    intra_site:
        Base one-way delay between two nodes of the same site
        (default 75 µs: Gigabit Ethernet through one switch).
    fibre_s_per_km:
        Propagation cost per kilometre of great-circle distance
        (default 5 µs/km ≈ fibre + routing detours).
    router_overhead:
        Fixed extra one-way delay for any inter-site path
        (default 1 ms: RENATER core routers).
    jitter:
        Multiplicative jitter half-width; each draw is scaled by a
        uniform factor from ``[1 - jitter, 1 + jitter]``.
    """

    def __init__(
        self,
        intra_site: float = 75e-6,
        fibre_s_per_km: float = 4e-6,
        router_overhead: float = 0.3e-3,
        jitter: float = 0.05,
    ) -> None:
        if intra_site < 0 or fibre_s_per_km < 0 or router_overhead < 0:
            raise ValueError("latency components must be >= 0")
        if not (0 <= jitter < 1):
            raise ValueError(f"jitter must be in [0, 1) (got {jitter})")
        self.intra_site = float(intra_site)
        self.fibre_s_per_km = float(fibre_s_per_km)
        self.router_overhead = float(router_overhead)
        self.jitter = float(jitter)
        self._base_cache: Dict[Tuple[str, str], float] = {}

    def base_delay(self, src: Site, dst: Site) -> float:
        """Jitter-free one-way delay between two sites."""
        key = (src.name, dst.name)
        cached = self._base_cache.get(key)
        if cached is not None:
            return cached
        if src.name == dst.name:
            base = self.intra_site
        else:
            base = (
                self.intra_site
                + self.router_overhead
                + src.distance_km(dst) * self.fibre_s_per_km
            )
        self._base_cache[key] = base
        self._base_cache[(dst.name, src.name)] = base
        return base

    def delay(self, src: Site, dst: Site, rng: random.Random) -> float:
        # inlined cache probe + jitter draw: this runs once per message
        # sent, and the base_delay/uniform call pair was measurable in
        # the protocol-stack profile
        base = self._base_cache.get((src.name, dst.name))
        if base is None:
            base = self.base_delay(src, dst)
        jitter = self.jitter
        if jitter == 0:
            return base
        lo = 1.0 - jitter
        return base * (lo + ((1.0 + jitter) - lo) * rng.random())
