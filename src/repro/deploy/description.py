"""Declarative overlay descriptions (the ADAGE input format's role)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class OverlayDescription:
    """What to deploy.

    Parameters
    ----------
    rendezvous_count:
        ``r``, the number of rendezvous peers.
    edge_count:
        ``e``, the number of edge peers (excluding none; the Figure 4
        benchmark adds its publisher/searcher edges itself).
    topology:
        Bootstrap graph among rendezvous peers: ``"chain"``, ``"tree"``
        or ``"star"``.
    edge_attachment:
        For each edge, the index of the rendezvous it is seeded to.
        Default: round-robin over all rendezvous.  The paper's
        configuration B attaches 50 edges to 5 rendezvous — expressed
        as ``[i % 5 for i in range(50)]``.
    """

    rendezvous_count: int
    edge_count: int = 0
    topology: str = "chain"
    edge_attachment: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.rendezvous_count < 1:
            raise ValueError("need at least one rendezvous peer")
        if self.edge_count < 0:
            raise ValueError("edge_count must be >= 0")
        if self.edge_attachment is not None:
            if len(self.edge_attachment) != self.edge_count:
                raise ValueError(
                    f"edge_attachment has {len(self.edge_attachment)} entries, "
                    f"expected edge_count={self.edge_count}"
                )
            for idx in self.edge_attachment:
                if not (0 <= idx < self.rendezvous_count):
                    raise ValueError(
                        f"edge attachment index {idx} out of range "
                        f"[0, {self.rendezvous_count})"
                    )

    def attachment(self) -> List[int]:
        """Resolved edge→rendezvous attachment indices."""
        if self.edge_attachment is not None:
            return list(self.edge_attachment)
        return [i % self.rendezvous_count for i in range(self.edge_count)]
