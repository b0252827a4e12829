"""Named deterministic random streams.

Reproducibility requirement: the paper's figures are produced from
single experimental runs, so our reproduction must be able to replay a
run bit-for-bit.  A single shared ``random.Random`` would make every
component's draws depend on global call order (adding one log line
would change a peerview referral choice).  Instead each component asks
for a *named* stream; the stream's seed is derived from the master seed
and the name with SHA-256, making streams independent of creation
order and of each other.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}
        #: name -> draws taken through :meth:`next_uniform`
        self._draws: Dict[str, int] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically
        on first use."""
        rng = self._streams.get(name)
        if rng is None:
            if name in self._draws:
                raise ValueError(f"{name!r} is drawn through next_uniform")
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def next_uniform(self, name: str, a: float, b: float) -> float:
        """The next ``uniform(a, b)`` of the stream ``name``, without
        keeping the stream resident.

        For names drawn from rarely (a task's start jitter: once per
        start) a resident ``random.Random`` costs ~2.4 KB for the
        whole run.  Only the draw count is kept: the (n+1)-th call
        seeds a fresh stream exactly as :meth:`stream` would, replays
        the n earlier draws (each ``uniform`` consumes one
        ``random()``) and returns the next, so the values are those
        ``stream(name).uniform(a, b)`` would have returned."""
        if name in self._streams:
            raise ValueError(f"{name!r} is drawn through stream()")
        drawn = self._draws.get(name, 0)
        rng = random.Random(derive_seed(self.master_seed, name))
        for _ in range(drawn):
            rng.random()
        self._draws[name] = drawn + 1
        return rng.uniform(a, b)

    def fork(self, name: str) -> "RngRegistry":
        """Create a child registry whose master seed is derived from this
        registry's seed and ``name`` (used to give each peer its own
        namespace of streams)."""
        return RngRegistry(derive_seed(self.master_seed, name))

    # ------------------------------------------------------------------
    # pickling (repro.snapshot)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Explicit state contract: the master seed, every named
        stream's Mersenne state and every :meth:`next_uniform` draw
        count.  The *stream objects themselves* are pickled (not just
        their ``getstate()`` tuples) so components that cached a stream
        reference — e.g. the network transport's ``_latency_rng`` —
        share the restored object through the pickle memo and keep
        drawing from the same sequence."""
        return {
            "master_seed": self.master_seed,
            "_streams": self._streams,
            "_draws": self._draws,
        }

    def __setstate__(self, state: dict) -> None:
        self.master_seed = state["master_seed"]
        self._streams = state["_streams"]
        self._draws = state["_draws"]

    def __contains__(self, name: str) -> bool:
        return name in self._streams or name in self._draws

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.master_seed}, streams={len(self._streams)})"
