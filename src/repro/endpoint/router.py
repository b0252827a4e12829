"""Endpoint Routing Protocol (ERP).

"Above the physical transport protocols, the endpoint routing protocol
(ERP) is used to find available routes from a source peer to a
destination peer" (§3.1).  The router keeps a table

    destination peer ID  ->  ordered hop list of transport addresses

Routes come from three places, mirroring JXTA-C:

* **configuration** — seed rendezvous addresses;
* **advertisements** — rendezvous advertisements carry a route hint,
  route advertisements carry full hop lists;
* **reverse-route learning** — receiving a message teaches the route
  back to its origin (JXTA-C reuses the incoming TCP connection).

Edge peers additionally set a *default route* (their rendezvous), so a
message for an unknown peer is handed to the rendezvous, which knows
its own leased edges — this is how Figure 2's step 3→4 (replica peer
forwards the query to the publisher edge) is carried.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.advertisement.routeadv import RouteAdvertisement
from repro.ids.jxtaid import PeerID
from repro.network.message import Envelope


class RoutingError(Exception):
    """No route to the destination peer."""


class EndpointRouter:
    """ERP route table and forwarding engine for one peer."""

    def __init__(self, endpoint: "EndpointService") -> None:  # noqa: F821
        self.endpoint = endpoint
        endpoint.router = self
        #: route slot per interned peer key (keys are dense per
        #: network); None, or a key past the end, means no route.  A
        #: write past the end extends the list to ``key + 1`` only, so
        #: a peer that routes to low keys alone keeps a short table.
        #: A converged r = 580 rendezvous holds ~579 routes: the list
        #: is ~5 KB where a dict of int keys was ~17.6 KB.
        #: Single-hop routes — the overwhelming majority at any scale —
        #: are stored as the bare address string: wrapping each in a
        #: one-element list costs ~20 MB of resident heap across the
        #: overlay.  Multi-hop routes keep the hop list.
        self.interner = endpoint.interner
        self._routes: List[Union[None, str, List[str]]] = []
        self._default_route: Optional[str] = None
        self.forwards = 0
        self.no_route_drops = 0

    # ------------------------------------------------------------------
    # table maintenance
    # ------------------------------------------------------------------
    def _get(self, key: int) -> Union[None, str, List[str]]:
        routes = self._routes
        return routes[key] if key < len(routes) else None

    def _set(self, key: int, route: Union[None, str, List[str]]) -> None:
        routes = self._routes
        if key < len(routes):
            routes[key] = route
        else:
            routes.extend([None] * (key - len(routes)))
            routes.append(route)

    def add_route(self, peer_id: PeerID, hops: List[str]) -> None:
        """Install/replace the route to ``peer_id``; a single hop is
        :meth:`add_direct_route`."""
        if not hops:
            raise ValueError("route needs at least one hop")
        if len(hops) == 1:
            self.add_direct_route(peer_id, hops[0])
            return
        key = self.interner.intern(peer_id)
        if self._get(key) != hops:
            self._set(key, list(hops))

    def add_direct_route(self, peer_id: PeerID, address: str) -> None:
        """Install/refresh a single-hop route without any hop-list
        allocation.  A flat lookup installs two (the replica's route to
        the publisher, the publisher's to the searcher), so the
        interner's cached-key fast path and the slot read are inline,
        as in :meth:`route_and_send`.  :meth:`_set` runs only when the
        route changes — protocols re-install the same single-hop route
        on every message."""
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

    def add_route_advertisement(self, adv: RouteAdvertisement) -> None:
        self.add_route(adv.dst_peer_id, adv.hops)

    def learn_reverse_route(self, peer_id: PeerID, origin_address: str) -> None:
        """Learn a direct route back to a message origin.  Never
        overwrites an explicitly installed multi-hop route."""
        key = self.interner.intern(peer_id)
        if key == self.endpoint.peer_key:
            return
        existing = self._get(key)
        if existing is None or (
            type(existing) is str and existing != origin_address
        ):
            # a multi-hop route is never overwritten by hearsay;
            # unchanged single-hop routes (the common case: every
            # message from a stable peer) skip the write
            self._set(key, origin_address)

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

    def resolve(self, peer_id: PeerID) -> Optional[List[str]]:
        """The hop list for ``peer_id``, or None if unroutable."""
        key = self.interner.lookup(peer_id)
        hops = None if key is None else self._get(key)
        if hops is not None:
            return [hops] if type(hops) is str else list(hops)
        if self._default_route is not None:
            return [self._default_route]
        return None

    def route_table_size(self) -> int:
        """Number of peers with a route (the non-None slots)."""
        return len(self._routes) - self._routes.count(None)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def route_and_send(
        self,
        message: "EndpointMessage",  # noqa: F821
        on_drop: Optional[Callable[[Envelope], None]] = None,
    ) -> None:
        """Send ``message`` one hop toward its destination peer.

        Messages with exhausted TTL or no resolvable route are dropped
        (with ``on_drop`` notification when provided), like JXTA's
        best-effort propagation.
        """
        endpoint = self.endpoint
        dst_peer = message.dst_peer
        route = None
        if dst_peer is not None:
            # the interner's cached-key fast path unrolled, as in
            # EndpointService._on_envelope: one per message sent
            interner = self.interner
            try:
                table, key = dst_peer._intern
                if table is not interner:
                    key = interner.intern(dst_peer)
            except AttributeError:
                key = interner.intern(dst_peer)
            if key == endpoint.peer_key:
                # routing to self: deliver locally without a network hop
                endpoint._on_envelope(
                    Envelope(
                        src=endpoint.transport_address,
                        dst=endpoint.transport_address,
                        payload=message,
                        size_bytes=message.size_bytes(),
                    )
                )
                return
            # messages for an HTTP relay client wait in the relay queue
            # instead of being pushed (the client cannot accept inbound
            # connections; it will poll)
            interceptor = endpoint.relay_interceptor
            if interceptor is not None and interceptor(message):
                return
            # the slot read inlined (no _get frame on the per-send path)
            routes = self._routes
            if key < len(routes):
                route = routes[key]
        if message.ttl <= 0:
            self.no_route_drops += 1
            return
        # first hop of resolve(), without building its hop list
        if route is None:
            route = self._default_route
        elif type(route) is not str:
            route = route[0]
        if route is None:
            self.no_route_drops += 1
            if on_drop is not None:
                on_drop(
                    Envelope(
                        src=endpoint.transport_address,
                        dst="<no-route>",
                        payload=message,
                        size_bytes=message.size_bytes(),
                    )
                )
            return
        self.forwards += 1
        endpoint.send_direct(route, message, on_drop=on_drop)
