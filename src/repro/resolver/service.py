"""Per-peer resolver service.

Dispatches resolver queries/responses/SRDI messages to registered
:class:`QueryHandler` objects and sends outgoing ones through the
endpoint service.  The resolver is deliberately topology-unaware: the
LC-DHT logic that picks *which* rendezvous receives a discovery query
lives in :mod:`repro.discovery`, and group-wide propagation is
delegated to the rendezvous service when a query has no destination.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.endpoint.service import EndpointMessage, EndpointService
from repro.ids.jxtaid import PeerID
from repro.resolver.messages import (
    ResolverQuery,
    ResolverResponse,
    ResolverSrdiMessage,
)

#: Endpoint service name the resolver binds (as in JXTA-C).
RESOLVER_SERVICE_NAME = "jxta.service.resolver"


class QueryHandler:
    """Base class for resolver clients (the discovery service, tests).

    Subclasses override any subset of the three hooks.  A non-None
    return from :meth:`process_query` is sent back as the response
    payload, mirroring JXTA's ResolverService contract.
    """

    def process_query(self, query: ResolverQuery) -> Optional[Any]:
        """Handle an incoming query; return a response payload or None."""
        return None

    def process_response(self, response: ResolverResponse) -> None:
        """Handle an incoming response to one of our queries."""

    def process_srdi(self, message: ResolverSrdiMessage) -> None:
        """Handle an incoming SRDI index push."""


class ResolverService:
    """Generic query/response engine bound to one peer."""

    def __init__(self, endpoint: EndpointService, group_param: str) -> None:
        self.endpoint = endpoint
        self.group_param = group_param
        self._handlers: Dict[str, QueryHandler] = {}
        self._next_query_id = 1
        #: Optional hook supplied by the rendezvous service: called as
        #: ``propagator(query)`` to spread a destination-less query
        #: through the group.
        self.propagator: Optional[Callable[[ResolverQuery], None]] = None
        self.queries_sent = 0
        self.responses_sent = 0
        self.srdi_sent = 0
        self._net = endpoint.network
        self._actor = endpoint.transport_address
        endpoint.add_listener(
            RESOLVER_SERVICE_NAME, group_param, self._on_message
        )

    # ------------------------------------------------------------------
    # handler registry
    # ------------------------------------------------------------------
    def register_handler(self, name: str, handler: QueryHandler) -> None:
        if name in self._handlers:
            raise ValueError(f"resolver handler already registered: {name!r}")
        self._handlers[name] = handler

    def unregister_handler(self, name: str) -> None:
        self._handlers.pop(name, None)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def new_query(self, handler_name: str, payload: Any) -> ResolverQuery:
        """Build a query originating at this peer."""
        query = ResolverQuery(
            handler_name,
            self._next_query_id,
            self.endpoint.peer_id,
            [self.endpoint.advertised_address],
            payload,
        )
        self._next_query_id += 1
        return query

    def send_query(
        self, dst_peer: Optional[PeerID], query: ResolverQuery
    ) -> None:
        """Send ``query`` to ``dst_peer``, or propagate through the
        group when ``dst_peer`` is None (JXTA's null-destination mode).

        This and the other three senders build their endpoint message
        in place: every message of Figure 2's four passes one of them."""
        self.queries_sent += 1
        endpoint = self.endpoint
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                endpoint.sim.now, "resolver", "query.sent", self._actor,
                handler=query.handler_name, qid=query.query_id,
                propagate=dst_peer is None,
            )
        if dst_peer is None:
            if self.propagator is None:
                raise RuntimeError(
                    "destination-less query but no propagator wired "
                    "(peer is not attached to a rendezvous service)"
                )
            self.propagator(query)
            return
        endpoint.send_to_peer(
            EndpointMessage(
                endpoint.peer_id, dst_peer, RESOLVER_SERVICE_NAME,
                self.group_param, query,
            )
        )

    def forward_query(
        self,
        dst_peer: PeerID,
        query: ResolverQuery,
        on_drop: Optional[Callable[..., None]] = None,
        payload: Any = None,
    ) -> None:
        """Re-send someone else's query one step further (LC-DHT
        forwarding between rendezvous peers): hop count increments,
        origin metadata is preserved, ``payload`` (the handler's body
        for the next hop) replaces the query's.  ``on_drop`` fires if
        the destination is unreachable (the TCP connect fails).

        Every hop of a walk comes through here, so the hopped query
        (:meth:`ResolverQuery.hopped`) is built in place too."""
        endpoint = self.endpoint
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                endpoint.sim.now, "resolver", "query.forwarded",
                self._actor, handler=query.handler_name, qid=query.query_id,
                hop=query.hop_count + 1,
            )
        endpoint.send_to_peer(
            EndpointMessage(
                endpoint.peer_id,
                dst_peer,
                RESOLVER_SERVICE_NAME,
                self.group_param,
                ResolverQuery(
                    query.handler_name,
                    query.query_id,
                    query.src_peer,
                    query.src_route,
                    query.payload if payload is None else payload,
                    query.hop_count + 1,
                ),
            ),
            on_drop=on_drop,
        )

    def send_response(self, query: ResolverQuery, payload: Any) -> None:
        """Respond to ``query``; routed directly to the query source
        using its embedded source route."""
        self.responses_sent += 1
        endpoint = self.endpoint
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                endpoint.sim.now, "resolver", "response.sent",
                self._actor, handler=query.handler_name, qid=query.query_id,
            )
        src_peer = query.src_peer
        if query.src_route:
            endpoint.router.add_route(src_peer, query.src_route)
        endpoint.send_to_peer(
            EndpointMessage(
                endpoint.peer_id, src_peer, RESOLVER_SERVICE_NAME,
                self.group_param,
                ResolverResponse(query.handler_name, query.query_id, payload),
            )
        )

    def send_srdi(self, dst_peer: PeerID, handler_name: str, payload: Any) -> None:
        """Push an SRDI message to a specific peer."""
        self.srdi_sent += 1
        endpoint = self.endpoint
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                endpoint.sim.now, "resolver", "srdi.sent", self._actor,
                handler=handler_name,
            )
        endpoint.send_to_peer(
            EndpointMessage(
                endpoint.peer_id, dst_peer, RESOLVER_SERVICE_NAME,
                self.group_param,
                ResolverSrdiMessage(handler_name, endpoint.peer_id, payload),
            )
        )

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def inject_query(self, query: ResolverQuery) -> None:
        """Run a query against the local handler as if it had arrived
        from the network (used by the rendezvous propagation protocol
        to deliver propagated queries)."""
        handler = self._handlers.get(query.handler_name)
        if handler is None:
            return
        response_payload = handler.process_query(query)
        if response_payload is not None:
            self.send_response(query, response_payload)

    def _on_message(self, message: EndpointMessage) -> None:
        body = message.body
        if isinstance(body, ResolverQuery):
            # inject_query inlined: a walk runs this once per hop.  The
            # handler is whatever was registered (possibly a wrapper),
            # so it is still looked up by name
            handler = self._handlers.get(body.handler_name)
            if handler is not None:
                response_payload = handler.process_query(body)
                if response_payload is not None:
                    self.send_response(body, response_payload)
        elif isinstance(body, ResolverResponse):
            handler = self._handlers.get(body.handler_name)
            if handler is not None:
                handler.process_response(body)
        elif isinstance(body, ResolverSrdiMessage):
            handler = self._handlers.get(body.handler_name)
            if handler is not None:
                handler.process_srdi(body)
        else:
            raise TypeError(f"unexpected resolver body: {type(body)!r}")
