"""Bootstrap (seeding) topologies.

The paper deploys overlays whose *initial* knowledge graph is a chain
or a tree ("We also experiment two overlay topologies: chains and
trees") and finds the choice has no significant influence on peerview
behaviour — the peerview protocol reorganizes the overlay by peer-ID
order regardless of who seeded whom.

A topology here is a list ``seeds`` where ``seeds[i]`` is the list of
peer *indices* that peer ``i`` knows at startup.
"""

from __future__ import annotations

from typing import List

SeedGraph = List[List[int]]


def chain_topology(n: int) -> SeedGraph:
    """Peer i bootstraps off peer i−1; peer 0 knows nobody."""
    if n < 1:
        raise ValueError(f"need at least one peer (got {n})")
    return [[] if i == 0 else [i - 1] for i in range(n)]


def tree_topology(n: int, fanout: int = 2) -> SeedGraph:
    """Peer i bootstraps off its tree parent ``(i − 1) // fanout``."""
    if n < 1:
        raise ValueError(f"need at least one peer (got {n})")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1 (got {fanout})")
    return [[] if i == 0 else [(i - 1) // fanout] for i in range(n)]


def star_topology(n: int) -> SeedGraph:
    """Every peer bootstraps off peer 0 (a single well-known seed)."""
    if n < 1:
        raise ValueError(f"need at least one peer (got {n})")
    return [[] if i == 0 else [0] for i in range(n)]


TOPOLOGIES = {
    "chain": chain_topology,
    "tree": tree_topology,
    "star": star_topology,
}


def make_topology(name: str, n: int) -> SeedGraph:
    """Build a named topology (``chain`` / ``tree`` / ``star``)."""
    try:
        builder = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; known: {sorted(TOPOLOGIES)}"
        ) from None
    return builder(n)
