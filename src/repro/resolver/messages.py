"""Resolver wire messages.

Three message kinds, as in the JXTA resolver spec: queries, responses
and SRDI messages (index pushes).  Payloads are handler-specific
objects; the resolver treats them opaquely, adding only addressing and
correlation metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from repro.ids.jxtaid import PeerID

#: XML framing of a resolver message around its payload.
RESOLVER_OVERHEAD_BYTES = 180


def _payload_size(payload: Any) -> int:
    """Wire size of a payload without a ``size_bytes()`` of its own
    (each message's ``size_bytes`` asks the payload first)."""
    if isinstance(payload, (bytes, str)):
        return len(payload)
    return 128


@dataclass(slots=True)
class ResolverQuery:
    """A query addressed to a named handler on some peer(s)."""

    handler_name: str
    query_id: int
    src_peer: PeerID
    #: Route back to the query source (JXTA's ``SrcPeerRoute`` field) —
    #: responders install it so the response can be sent directly.
    #: A forwarded copy (``ResolverService.forward_query``, every hop
    #: of a walk) shares the origin's list: nothing mutates it, and
    #: ``EndpointRouter.add_route`` copies a multi-hop list it keeps.
    src_route: List[str]
    payload: Any
    hop_count: int = 0

    def size_bytes(self) -> int:
        # the payload's own size read here: once per hop of every query
        size = getattr(self.payload, "size_bytes", None)
        if callable(size):
            return RESOLVER_OVERHEAD_BYTES + int(size())
        return RESOLVER_OVERHEAD_BYTES + _payload_size(self.payload)

    def hopped(self, payload: Any = None) -> "ResolverQuery":
        """Copy with the hop counter incremented (for re-propagation;
        ``ResolverService.forward_query`` builds the forwarded copy in
        place), carrying ``payload`` instead when given."""
        return ResolverQuery(
            self.handler_name,
            self.query_id,
            self.src_peer,
            list(self.src_route),
            self.payload if payload is None else payload,
            self.hop_count + 1,
        )


@dataclass
class ResolverResponse:
    """A response correlated to a query by (src peer, query id)."""

    handler_name: str
    query_id: int
    payload: Any

    def size_bytes(self) -> int:
        # the payload's own size read here, as ResolverQuery.size_bytes
        # does: once per response of every query
        size = getattr(self.payload, "size_bytes", None)
        if callable(size):
            return RESOLVER_OVERHEAD_BYTES + int(size())
        return RESOLVER_OVERHEAD_BYTES + _payload_size(self.payload)


@dataclass
class ResolverSrdiMessage:
    """An SRDI (Shared Resource Distributed Index) push."""

    handler_name: str
    src_peer: PeerID
    payload: Any

    def size_bytes(self) -> int:
        size = getattr(self.payload, "size_bytes", None)
        if callable(size):
            return RESOLVER_OVERHEAD_BYTES + int(size())
        return RESOLVER_OVERHEAD_BYTES + _payload_size(self.payload)
