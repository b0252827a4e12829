"""Advertisement catalogs: what gets published and searched.

A :class:`Catalog` is an ordered set of named items, each backed by a
:class:`~repro.advertisement.testadv.FakeAdvertisement`, plus a
popularity distribution over them.  Popularity is either uniform or
Zipf(s) — request frequency of the k-th most popular item ∝ 1/kˢ —
the skew that pub/sub and discovery measurement studies show flips
conclusions about caching and replication.

Sampling draws one ``rng.random()`` and bisects the precomputed
cumulative weight table, so a draw costs O(log n) and the draw
sequence is a pure function of the stream.

:func:`noiser_catalog` reproduces the Figure 4 configuration-B fake
advertisements ("fake-{i}-{j}", 64-byte payload) as a catalog, and
:func:`publish_catalog` re-drives the legacy per-noiser publish loop
from it — byte-identically, which the equivalence test pins.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence

from repro.advertisement.testadv import FakeAdvertisement

#: Legacy noiser payload (fig4_right's inline loop used "x" * 64).
NOISER_PAYLOAD_BYTES = 64


class Catalog:
    """Ordered item names + popularity weights + advertisement factory."""

    def __init__(
        self,
        names: Sequence[str],
        weights: Optional[Sequence[float]] = None,
        payload_bytes: int = NOISER_PAYLOAD_BYTES,
        popularity: str = "uniform",
        skew: float = 0.0,
    ) -> None:
        if not names:
            raise ValueError("catalog needs at least one item")
        if len(set(names)) != len(names):
            raise ValueError("catalog item names must be unique")
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        self.names: List[str] = list(names)
        self.payload = "x" * payload_bytes
        self.payload_bytes = payload_bytes
        self.popularity = popularity
        self.skew = float(skew)
        if weights is None:
            weights = [1.0] * len(self.names)
        if len(weights) != len(self.names):
            raise ValueError("one weight per item required")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be > 0")
        total = float(sum(weights))
        # cumulative distribution for O(log n) sampling
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float shortfall
        self._index = {name: k for k, name in enumerate(self.names)}
        #: each item's one document, built on first use
        self._advs: List[Optional[FakeAdvertisement]] = [None] * len(self.names)

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        size: int,
        prefix: str = "item",
        payload_bytes: int = NOISER_PAYLOAD_BYTES,
    ) -> "Catalog":
        """``size`` equally popular items named ``{prefix}-{k}``."""
        if size < 1:
            raise ValueError("size must be >= 1")
        return cls(
            [f"{prefix}-{k}" for k in range(size)],
            payload_bytes=payload_bytes,
            popularity="uniform",
        )

    @classmethod
    def zipf(
        cls,
        size: int,
        skew: float = 1.0,
        prefix: str = "item",
        payload_bytes: int = NOISER_PAYLOAD_BYTES,
    ) -> "Catalog":
        """``size`` items with Zipf(``skew``) popularity: item k (0-based)
        is requested with probability ∝ 1/(k+1)^skew."""
        if size < 1:
            raise ValueError("size must be >= 1")
        if skew < 0:
            raise ValueError(f"skew must be >= 0 (got {skew})")
        return cls(
            [f"{prefix}-{k}" for k in range(size)],
            weights=[1.0 / (k + 1) ** skew for k in range(size)],
            payload_bytes=payload_bytes,
            popularity="zipf",
            skew=skew,
        )

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "Catalog":
        """Build from a JSON-able spec dict (see docs/WORKLOADS.md)."""
        kind = spec.get("popularity", "uniform")
        size = int(spec.get("size", 100))
        prefix = spec.get("prefix", "item")
        payload_bytes = int(spec.get("payload_bytes", NOISER_PAYLOAD_BYTES))
        if kind == "uniform":
            return cls.uniform(size, prefix=prefix, payload_bytes=payload_bytes)
        if kind == "zipf":
            return cls.zipf(
                size,
                skew=float(spec.get("skew", 1.0)),
                prefix=prefix,
                payload_bytes=payload_bytes,
            )
        raise ValueError(
            f"unknown catalog popularity {kind!r} (uniform or zipf)"
        )

    def spec(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "popularity": self.popularity,
            "size": len(self.names),
            "payload_bytes": self.payload_bytes,
        }
        if self.popularity == "zipf":
            out["skew"] = self.skew
        return out

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def sample(self, rng) -> int:
        """Draw one item index according to the popularity weights."""
        return bisect_left(self._cdf, rng.random())

    def sample_name(self, rng) -> str:
        return self.names[self.sample(rng)]

    def adv(self, index: int) -> FakeAdvertisement:
        """The advertisement document for item ``index``: one shared
        object however many clients publish it (documents travel by
        reference and are never written to once published)."""
        adv = self._advs[index]
        if adv is None:
            adv = self._advs[index] = FakeAdvertisement(self.names[index], self.payload)
        return adv

    def adv_named(self, name: str) -> FakeAdvertisement:
        """The advertisement for a named item (used by trace replay)."""
        return self.adv(self._index[name])

    def index_tuple(self, index: int):
        """The SRDI index tuple a query for item ``index`` matches."""
        return (FakeAdvertisement.ADV_TYPE, "Name", self.names[index])


def noiser_catalog(
    noisers: int,
    fakes_per_noiser: int,
    payload_bytes: int = NOISER_PAYLOAD_BYTES,
) -> Catalog:
    """The Figure 4 configuration-B fake-advertisement catalog.

    Item order is the legacy publish order: noiser ``i``'s block of
    ``fakes_per_noiser`` items, named ``fake-{i}-{j}``, is contiguous —
    :func:`publish_catalog` over ``noisers`` edges then reproduces the
    old nested loop exactly.
    """
    if noisers < 1 or fakes_per_noiser < 1:
        raise ValueError("noisers and fakes_per_noiser must be >= 1")
    names = [
        f"fake-{i}-{j}"
        for i in range(noisers)
        for j in range(fakes_per_noiser)
    ]
    return Catalog(names, payload_bytes=payload_bytes)


def publish_catalog(
    edges: Sequence,
    catalog: Catalog,
    expiration: float,
    lifetime: Optional[float] = None,
) -> int:
    """Publish every catalog item once, right now, spread over
    ``edges`` in contiguous blocks (edge 0 publishes the first
    ``ceil(n/len(edges))`` items, and so on) — the open-loop burst that
    generalises the fig4 noiser loop.  Returns the publish count."""
    if not edges:
        return 0
    n = len(catalog)
    per_edge = -(-n // len(edges))  # ceil division
    published = 0
    for i, edge in enumerate(edges):
        for k in range(i * per_edge, min((i + 1) * per_edge, n)):
            if lifetime is None:
                edge.discovery.publish(catalog.adv(k), expiration=expiration)
            else:
                edge.discovery.publish(
                    catalog.adv(k), lifetime=lifetime, expiration=expiration
                )
            published += 1
    return published
