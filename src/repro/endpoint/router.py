"""Endpoint Routing Protocol (ERP).

"Above the physical transport protocols, the endpoint routing protocol
(ERP) is used to find available routes from a source peer to a
destination peer" (§3.1).  The router keeps a table

    destination peer ID  ->  transport address of the next hop

Every route is one hop: a direct connection, or the relay through an
edge's rendezvous.  Routes come from three places, mirroring JXTA-C:

* **configuration** — seed rendezvous addresses;
* **advertisements** — rendezvous advertisements carry a route hint;
* **reverse-route learning** — receiving a message teaches the route
  back to its origin (JXTA-C reuses the incoming TCP connection).

Edge peers additionally set a *default route* (their rendezvous), so a
message for an unknown peer is handed to the rendezvous, which knows
its own leased edges — this is how Figure 2's step 3→4 (replica peer
forwards the query to the publisher edge) is carried.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ids.intern import IdInternTable
from repro.ids.jxtaid import PeerID


class EndpointRouter:
    """ERP route table for one peer; its endpoint's ``send_to_peer``
    forwards through it."""

    def __init__(self, interner: IdInternTable) -> None:
        #: route slot per interned peer key (keys are dense per
        #: network); None, or a key past the end, means no route.  A
        #: write past the end extends the list to ``key + 1`` only, so
        #: a peer that routes to low keys alone keeps a short table.
        #: A converged r = 580 rendezvous holds ~579 routes: the list
        #: is ~5 KB where a dict of int keys was ~17.6 KB.
        self.interner = interner
        self._routes: List[Optional[str]] = []
        self._default_route: Optional[str] = None
        self.no_route_drops = 0

    # ------------------------------------------------------------------
    # table maintenance
    # ------------------------------------------------------------------
    def _get(self, key: int) -> Optional[str]:
        routes = self._routes
        return routes[key] if key < len(routes) else None

    def _set(self, key: int, route: Optional[str]) -> None:
        routes = self._routes
        if key < len(routes):
            routes[key] = route
        else:
            routes.extend([None] * (key - len(routes)))
            routes.append(route)

    def add_direct_route(self, peer_id: PeerID, address: str) -> None:
        """Install/refresh the route to ``peer_id``.  A flat lookup
        installs two (the replica's route to the publisher, the
        publisher's to the searcher), so the interner's cached-key fast
        path and the slot read are inline, as in
        :meth:`EndpointService.send_to_peer`.
        :meth:`_set` runs only when the route changes — protocols
        re-install the same route on every message."""
        interner = self.interner
        try:
            table, key = peer_id._intern
            if table is not interner:
                key = interner.intern(peer_id)
        except AttributeError:
            key = interner.intern(peer_id)
        routes = self._routes
        if key >= len(routes) or routes[key] != address:
            self._set(key, address)

    def remove_route(self, peer_id: PeerID) -> None:
        key = self.interner.lookup(peer_id)
        if key is not None and key < len(self._routes):
            self._routes[key] = None

    def set_default_route(self, transport_address: Optional[str]) -> None:
        """Route of last resort (an edge peer's rendezvous)."""
        self._default_route = transport_address

    def has_route(self, peer_id: PeerID) -> bool:
        key = self.interner.lookup(peer_id)
        return key is not None and self._get(key) is not None

    def route_table_size(self) -> int:
        """Number of peers with a route (the non-None slots)."""
        return len(self._routes) - self._routes.count(None)
