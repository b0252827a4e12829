"""The rendezvous propagation protocol.

"The rendezvous propagation protocol enables peers to manage the
propagation of individual messages within a group" (§3.2).  A
propagated payload (typically a resolver query) spreads across the
rendezvous network: each rendezvous delivers it locally and forwards
it to the peerview members that have not seen it yet, bounded by a TTL
and a visited list.  With consistent peerviews one forwarding round
reaches every rendezvous; with inconsistent views the re-flood fills
the gaps.

The LC-DHT discovery path does *not* use this service (it sends
directed resolver queries); the JXTA 1.0-style flooding baseline of
:mod:`repro.baselines.flooding` does.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.config import PlatformConfig
from repro.endpoint.service import EndpointMessage, EndpointService
from repro.rendezvous.messages import PropagatedMessage
from repro.rendezvous.peerview import PeerView
from repro.resolver.messages import ResolverQuery
from repro.resolver.service import ResolverService

#: Endpoint service name for propagation traffic.
PROPAGATE_SERVICE_NAME = "jxta.service.rdv.propagate"


class PropagationService:
    """Rendezvous-side propagation engine."""

    def __init__(
        self,
        endpoint: EndpointService,
        resolver: ResolverService,
        view: PeerView,
        config: PlatformConfig,
        group_param: str,
    ) -> None:
        self.endpoint = endpoint
        self.resolver = resolver
        self.view = view
        self.config = config
        self.group_param = group_param
        self.propagated = 0
        self.received = 0
        endpoint.add_listener(PROPAGATE_SERVICE_NAME, group_param, self._on_message)

    # ------------------------------------------------------------------
    def propagate(self, query: ResolverQuery) -> None:
        """Originate a group-wide propagation of ``query``."""
        self.resolver.inject_query(query)
        self._forward(query, self.config.propagate_ttl, (self.view.local_key,))

    # ------------------------------------------------------------------
    def _forward(self, payload: Any, ttl: int, seen: Iterable[int]) -> None:
        """Send ``payload`` to every peerview member not in ``seen`` (the
        interned keys of the peers that already handled it)."""
        if ttl <= 0:
            return
        view = self.view
        visited = set(seen)
        visited.add(view.local_key)
        targets = [key for key in view._key_seq if key not in visited]
        if not targets:
            return
        visited.update(targets)
        # sorted ints: the pickled message does not hang on set order
        next_hop = PropagatedMessage(
            payload=payload, ttl=ttl - 1, visited=sorted(visited)
        )
        entries = view._entries
        id_of = view.interner.id_of
        for key in targets:
            route_hint = entries[key].route_hint
            if not route_hint:
                continue
            self.propagated += 1
            self.endpoint.send_direct(
                route_hint,
                EndpointMessage(
                    src_peer=self.endpoint.peer_id,
                    dst_peer=id_of(key),
                    service_name=PROPAGATE_SERVICE_NAME,
                    service_param=self.group_param,
                    body=next_hop,
                ),
            )

    # ------------------------------------------------------------------
    def _on_message(self, message: EndpointMessage) -> None:
        body = message.body
        if not isinstance(body, PropagatedMessage):
            raise TypeError(f"unexpected propagation body: {type(body)!r}")
        self.received += 1
        query = body.payload
        if isinstance(query, ResolverQuery):
            self.resolver.inject_query(query.hopped())
        # re-flood towards peerview members the sender did not know
        self._forward(query, body.ttl, body.visited)
