"""HTTP relay transport for firewalled/NAT'd edge peers.

Figure 1 of the paper lists "TCP, HTTP, etc" as JXTA's physical
transports.  The HTTP transport exists for peers that cannot accept
inbound connections: such a peer registers with a *relay* (in JXTA 2.x
typically its rendezvous), sends outbound traffic directly (an HTTP
POST is always possible), and receives inbound traffic by polling the
relay, which queues messages addressed to the peer in the meantime.

The model here reproduces exactly that asymmetry:

* an HTTP edge's **advertised address is the relay's address** — every
  route to it (lease records, resolver source routes, reverse-route
  learning) points at the relay;
* the relay **intercepts** messages addressed to registered clients
  and queues them instead of ERP-forwarding (its interceptor is
  installed on the endpoint while it has a client, so a rendezvous
  without relay clients routes without it);
* the client **polls** every ``poll_interval`` (default 2 s, JXTA-C's
  HTTP poll default); queued messages ride back on the poll response,
  so inbound delivery pays an average extra ``poll_interval / 2`` —
  the latency penalty JXTA's HTTP transport is known for (the paper's
  companion studies [3, 4] measure it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.endpoint.service import EndpointMessage, EndpointService
from repro.ids.jxtaid import PeerID
from repro.sim.process import PeriodicTask

#: JXTA-C's default HTTP poll period.
DEFAULT_POLL_INTERVAL = 2.0
#: Seconds a client's registration holds; it re-registers every half.
RELAY_LEASE = 300.0
#: Relay queue bound per client (JXTA drops excess, relays are not
#: infinite buffers).
DEFAULT_QUEUE_LIMIT = 200

#: Endpoint service name for relay control traffic.
RELAY_SERVICE_NAME = "jxta.service.relay"


@dataclass
class RelayRegister:
    """Client asks the relay to queue its inbound traffic."""

    client_peer: PeerID
    client_address: str
    lease: float

    def size_bytes(self) -> int:
        return 220


@dataclass
class RelayPoll:
    """Client drains its queue (the HTTP GET)."""

    client_peer: PeerID
    client_address: str

    def size_bytes(self) -> int:
        return 140


@dataclass
class RelayBatch:
    """Relay's poll response: the queued messages."""

    messages: List[EndpointMessage] = field(default_factory=list)

    def size_bytes(self) -> int:
        return 160 + sum(m.size_bytes() for m in self.messages)


@dataclass
class _ClientRecord:
    client_address: str
    expires_at: float
    queue: List[EndpointMessage] = field(default_factory=list)


class RelayServer:
    """Rendezvous-side relay: queue inbound traffic for HTTP clients."""

    def __init__(
        self,
        endpoint: EndpointService,
        group_param: str,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1 (got {queue_limit})")
        self.endpoint = endpoint
        self.group_param = group_param
        self.queue_limit = queue_limit
        self._clients: Dict[PeerID, _ClientRecord] = {}
        self.queued = 0
        self.dropped_overflow = 0
        self.polls_served = 0
        endpoint.add_listener(RELAY_SERVICE_NAME, group_param, self._on_message)

    # ------------------------------------------------------------------
    def client_count(self) -> int:
        self._purge()
        return len(self._clients)

    def queue_length(self, peer: PeerID) -> int:
        record = self._clients.get(peer)
        return len(record.queue) if record is not None else 0

    def _purge(self) -> None:
        """Drop expired clients; the last one takes the interceptor."""
        now = self.endpoint.sim.now
        dead = [p for p, r in self._clients.items() if r.expires_at <= now]
        for p in dead:
            del self._clients[p]
        if dead and not self._clients:
            self.endpoint.relay_interceptor = None

    # ------------------------------------------------------------------
    def _intercept(self, message: EndpointMessage) -> bool:
        """Queue messages addressed to a registered client.  Installed
        as ``endpoint.relay_interceptor`` from the first registration
        until :meth:`_purge` drops the last client: every message the
        peer routes comes by here meanwhile."""
        self._purge()
        record = self._clients.get(message.dst_peer)
        if record is None:
            return False
        if len(record.queue) >= self.queue_limit:
            self.dropped_overflow += 1
            return True  # swallowed: relays drop on overflow
        record.queue.append(message)
        self.queued += 1
        return True

    def _on_message(self, message: EndpointMessage) -> None:
        body = message.body
        now = self.endpoint.sim.now
        if isinstance(body, RelayRegister):
            if not self._clients:
                self.endpoint.relay_interceptor = self._intercept
            self._clients[body.client_peer] = _ClientRecord(
                client_address=body.client_address,
                expires_at=now + body.lease,
                queue=self._clients[body.client_peer].queue
                if body.client_peer in self._clients
                else [],
            )
        elif isinstance(body, RelayPoll):
            self._purge()
            record = self._clients.get(body.client_peer)
            if record is None:
                return
            self.polls_served += 1
            batch = RelayBatch(messages=record.queue)
            record.queue = []
            # the poll response rides the already-open HTTP connection:
            # delivered to the client's real (private) address
            self.endpoint.send_direct(
                body.client_address,
                EndpointMessage(
                    src_peer=self.endpoint.peer_id,
                    dst_peer=body.client_peer,
                    service_name=RELAY_SERVICE_NAME,
                    service_param=self.group_param,
                    body=batch,
                ),
            )


class RelayClient:
    """Edge-side HTTP transport: register, poll, unwrap."""

    def __init__(
        self,
        endpoint: EndpointService,
        group_param: str,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0 (got {poll_interval})")
        self.endpoint = endpoint
        self.group_param = group_param
        self.poll_interval = poll_interval
        self.relay_address: Optional[str] = None
        self.polls_sent = 0
        self.messages_received = 0
        self._poll_task = PeriodicTask(
            endpoint.sim, poll_interval, self._poll,
            name=f"relay-poll:{endpoint.peer_id.short()}",
            start_jitter=poll_interval,
        )
        self._register_task = PeriodicTask(
            endpoint.sim, RELAY_LEASE / 2, self._register,
            name=f"relay-reg:{endpoint.peer_id.short()}",
        )
        endpoint.add_listener(RELAY_SERVICE_NAME, group_param, self._on_message)

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.relay_address is not None

    def attach(self, relay_address: str) -> None:
        """Start relaying through ``relay_address``: all inbound
        traffic now funnels through the relay queue."""
        self.relay_address = relay_address
        self.endpoint.advertised_address = relay_address
        self._register()
        if not self._poll_task.started:
            self._poll_task.start()
            self._register_task.start()

    def detach(self) -> None:
        if self._poll_task.started:
            self._poll_task.stop()
            self._register_task.stop()
        self.relay_address = None
        self.endpoint.advertised_address = self.endpoint.transport_address

    # ------------------------------------------------------------------
    def _register(self) -> None:
        if self.relay_address is None:
            return
        self.endpoint.send_direct(
            self.relay_address,
            EndpointMessage(
                src_peer=self.endpoint.peer_id,
                dst_peer=None,
                service_name=RELAY_SERVICE_NAME,
                service_param=self.group_param,
                body=RelayRegister(
                    client_peer=self.endpoint.peer_id,
                    client_address=self.endpoint.transport_address,
                    lease=RELAY_LEASE,
                ),
            ),
        )

    def _poll(self) -> None:
        if self.relay_address is None:
            return
        self.polls_sent += 1
        self.endpoint.send_direct(
            self.relay_address,
            EndpointMessage(
                src_peer=self.endpoint.peer_id,
                dst_peer=None,
                service_name=RELAY_SERVICE_NAME,
                service_param=self.group_param,
                body=RelayPoll(
                    client_peer=self.endpoint.peer_id,
                    client_address=self.endpoint.transport_address,
                ),
            ),
        )

    def _on_message(self, message: EndpointMessage) -> None:
        body = message.body
        if isinstance(body, RelayBatch):
            for inner in body.messages:
                self.messages_received += 1
                # hand the queued message to the local demultiplexer as
                # if it had arrived directly
                from repro.network.message import Envelope

                self.endpoint._on_envelope(
                    Envelope(
                        src=inner.origin_address or "relay",
                        dst=self.endpoint.transport_address,
                        payload=inner,
                        size_bytes=inner.size_bytes(),
                    )
                )
