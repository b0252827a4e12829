"""Per-peer endpoint service.

The endpoint service is each peer's message doorway: it binds the
peer's transport address on the simulated network, demultiplexes
incoming :class:`EndpointMessage` objects to registered service
listeners (rendezvous, resolver, ...) and, through its own
:class:`repro.endpoint.router.EndpointRouter`, delivers messages
addressed to peer IDs rather than transport addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.endpoint.router import EndpointRouter
from repro.ids.jxtaid import PeerID
from repro.network.message import Envelope
from repro.network.site import Node
from repro.network.transport import Network
from repro.sim.kernel import Simulator

#: Framing overhead added to every endpoint message (JXTA message
#: envelope, XML element wrappers, credential block).
MESSAGE_HEADER_BYTES = 240

#: Default hop budget for ERP forwarding.
DEFAULT_TTL = 8

EndpointListener = Callable[["EndpointMessage"], None]


def _body_size(body: Any) -> int:
    """Best-effort serialized size of a message body."""
    size = getattr(body, "size_bytes", None)
    if size is not None:
        return size()
    if isinstance(body, (bytes, str)):
        return len(body)
    return 256


@dataclass(slots=True)
class EndpointMessage:
    """A JXTA message addressed to a service on a destination peer.

    ``dst_peer`` may be None for messages addressed purely by transport
    address (bootstrap traffic to seed rendezvous whose peer ID is not
    yet known); such messages are always delivered to whichever peer is
    bound at the address.
    """

    src_peer: PeerID
    dst_peer: Optional[PeerID]
    service_name: str
    service_param: str
    body: Any
    #: Transport address of the *origin* peer (reverse-route learning).
    origin_address: str = ""
    ttl: int = DEFAULT_TTL

    def size_bytes(self) -> int:
        # _body_size inlined: computed once per message sent
        size = getattr(self.body, "size_bytes", None)
        if size is not None:
            return MESSAGE_HEADER_BYTES + size()
        return MESSAGE_HEADER_BYTES + _body_size(self.body)

    def forwarded(self) -> "EndpointMessage":
        """Copy with TTL decremented."""
        return replace(self, ttl=self.ttl - 1)


class EndpointService:
    """Message demultiplexer bound to one peer's transport address."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        peer_id: PeerID,
        node: Node,
        transport_address: str,
    ) -> None:
        self.sim = sim
        self.network = network
        self.peer_id = peer_id
        #: network-scoped intern table and this peer's dense key; the
        #: per-message "is this for me?" test compares ints, not IDs
        self.interner = network.interner
        self.peer_key = self.interner.register(peer_id)
        self._intern = self.interner.intern
        self.node = node
        self.transport_address = transport_address
        #: The address other peers should send to.  Equal to
        #: ``transport_address`` for TCP peers; HTTP (NAT'd) edges set
        #: it to their relay's address so all inbound traffic funnels
        #: through the relay queue.
        self.advertised_address = transport_address
        self._listeners: Dict[Tuple[str, str], EndpointListener] = {}
        # one-entry listener cache: steady-state traffic at a peer is
        # dominated by a single service (peerview on a rendezvous),
        # and service name/param strings arrive as the same constant
        # objects, so two identity checks usually replace the tuple
        # build + dict lookup per message
        self._hot_name: Optional[str] = None
        self._hot_param: Optional[str] = None
        self._hot_listener: Optional[EndpointListener] = None
        #: the ERP route table ``send_to_peer`` reads
        self.router = EndpointRouter(self.interner)
        #: Optional hook (a rendezvous relay server): called with each
        #: message addressed to another peer; returning True means the
        #: message was queued for a relay client and must not be
        #: ERP-forwarded.
        self.relay_interceptor = None  # type: Optional[Callable[[EndpointMessage], bool]]
        self.messages_in = 0
        self.messages_out = 0
        self.messages_relayed = 0
        self._attached = False
        self._net = network

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Bind the transport address on the network."""
        self.network.attach(self.transport_address, self.node, self._on_envelope)
        self._attached = True

    def detach(self) -> None:
        """Unbind (peer shutdown or simulated crash)."""
        self.network.detach(self.transport_address)
        self._attached = False

    @property
    def attached(self) -> bool:
        return self._attached

    # ------------------------------------------------------------------
    # listener registry
    # ------------------------------------------------------------------
    def add_listener(
        self, service_name: str, service_param: str, listener: EndpointListener
    ) -> None:
        key = (service_name, service_param)
        if key in self._listeners:
            raise ValueError(f"listener already registered for {key}")
        self._listeners[key] = listener
        self._hot_name = None
        self._hot_listener = None

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_direct(
        self,
        dst_transport_address: str,
        message: EndpointMessage,
        on_drop: Optional[Callable[[Envelope], None]] = None,
    ) -> None:
        """Send to a known transport address (one network hop)."""
        self.messages_out += 1
        if not message.origin_address:
            message.origin_address = self.advertised_address
        # message.size_bytes() inlined (one frame per message sent)
        body_size = getattr(message.body, "size_bytes", None)
        if body_size is not None:
            size = MESSAGE_HEADER_BYTES + body_size()
        else:
            size = MESSAGE_HEADER_BYTES + _body_size(message.body)
        self.network.send(
            self.transport_address,
            dst_transport_address,
            message,
            size_bytes=size,
            on_drop=on_drop,
        )

    def send_to_peer(
        self,
        message: EndpointMessage,
        on_drop: Optional[Callable[[Envelope], None]] = None,
    ) -> None:
        """Send ``message`` one hop toward ``message.dst_peer`` via the
        ERP route table, or the default route when the table has none.

        Messages with exhausted TTL or no route are dropped (with
        ``on_drop`` notification when provided), like JXTA's
        best-effort propagation.
        """
        router = self.router
        dst_peer = message.dst_peer
        route = None
        if dst_peer is not None:
            # the interner's cached-key fast path unrolled, as in
            # _on_envelope: one per message sent
            interner = self.interner
            try:
                table, key = dst_peer._intern
                if table is not interner:
                    key = interner.intern(dst_peer)
            except AttributeError:
                key = interner.intern(dst_peer)
            if key == self.peer_key:
                # routing to self: deliver locally without a network hop
                self._on_envelope(
                    Envelope(
                        src=self.transport_address,
                        dst=self.transport_address,
                        payload=message,
                        size_bytes=message.size_bytes(),
                    )
                )
                return
            # messages for an HTTP relay client wait in the relay queue
            # instead of being pushed (the client cannot accept inbound
            # connections; it will poll)
            interceptor = self.relay_interceptor
            if interceptor is not None and interceptor(message):
                return
            # the slot read inlined (no _get frame on the per-send path)
            routes = router._routes
            if key < len(routes):
                route = routes[key]
        if message.ttl <= 0:
            router.no_route_drops += 1
            return
        if route is None:
            route = router._default_route
        if route is None:
            router.no_route_drops += 1
            if on_drop is not None:
                on_drop(
                    Envelope(
                        src=self.transport_address,
                        dst="<no-route>",
                        payload=message,
                        size_bytes=message.size_bytes(),
                    )
                )
            return
        self.send_direct(route, message, on_drop=on_drop)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_envelope(self, envelope: Envelope) -> None:
        message = envelope.payload
        if type(message) is not EndpointMessage:
            raise TypeError(
                f"endpoint received non-endpoint payload: {type(message)!r}"
            )
        self.messages_in += 1
        peer_key = self.peer_key
        interner = self.interner
        origin = message.origin_address
        if origin:
            # reverse-route learning, inline: this runs once per
            # received message, and the interner's cached-key fast path
            # is unrolled too (an attribute load + identity check
            # instead of a call)
            src_peer = message.src_peer
            try:
                table, key = src_peer._intern
                if table is not interner:
                    key = interner.intern(src_peer)
            except AttributeError:
                key = interner.intern(src_peer)
            if key != peer_key:
                routes = self.router._routes
                try:
                    # unchanged routes (every message from a stable
                    # peer) skip the write
                    if routes[key] != origin:
                        routes[key] = origin
                except IndexError:
                    # past the end: extend the slot list to key + 1
                    routes.extend([None] * (key - len(routes)))
                    routes.append(origin)
        dst_peer = message.dst_peer
        if dst_peer is not None:
            try:
                table, dst_key = dst_peer._intern
                if table is not interner:
                    dst_key = interner.intern(dst_peer)
            except AttributeError:
                dst_key = interner.intern(dst_peer)
        else:
            dst_key = peer_key
        if dst_key != peer_key:
            # ERP relay (e.g. a rendezvous forwarding to its edge);
            # send_to_peer checks the HTTP relay queue before forwarding
            if message.ttl <= 0:
                return
            self.messages_relayed += 1
            obs = self._net.obs
            if obs is not None and obs.active:
                obs.event(
                    self.sim.now, "endpoint", "relay",
                    self.transport_address, service=message.service_name,
                )
            self.send_to_peer(message.forwarded())
            return
        name = message.service_name
        param = message.service_param
        if name is self._hot_name and param is self._hot_param:
            listener = self._hot_listener
        else:
            listener = self._listeners.get((name, param))
            if listener is None:
                # JXTA drops messages for unknown services silently
                return
            self._hot_name = name
            self._hot_param = param
            self._hot_listener = listener
        listener(message)
