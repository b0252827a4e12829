"""The bidirectional peerview walk.

"Upon failing to find a resource on a replica peer, a backup mechanism
is used: the query will be forwarded to the upper and lower rendezvous
peers, which may store the resource.  The query is said to walk the
whole peerview in both directions" (§3.3).  This walk is what turns
the O(1) lookup into the O(r) worst case the paper measures for large
overlays.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ids.jxtaid import PeerID
from repro.rendezvous.peerview import PeerView

#: Walk direction constants carried in discovery query payloads.
WALK_NONE = 0
WALK_UP = 1
WALK_DOWN = -1


def walk_start_targets(view: PeerView) -> List[tuple]:
    """Initial walk legs from a failed replica peer: ``(peer, direction)``
    for the upper and lower rendezvous, when present.  Both targets are
    read before either leg is sent."""
    out = []
    for direction in (WALK_UP, WALK_DOWN):
        target = walk_next_target(view, direction)
        if target is not None:
            out.append((target, direction))
    return out


def walk_next_target(view: PeerView, direction: int) -> Optional[PeerID]:
    """Next rendezvous for a walk leg passing through this peer, or
    None when this peer is the end of its local sorted list: the
    view's :meth:`~PeerView.neighbor_key` as an ID.  (A hop in
    ``DiscoveryService._continue_walk`` reads the key itself.)"""
    if direction != WALK_UP and direction != WALK_DOWN:
        raise ValueError(f"not a walk direction: {direction}")
    key = view.neighbor_key(direction)
    return None if key is None else view.interner.id_of(key)
