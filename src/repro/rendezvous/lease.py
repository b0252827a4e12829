"""The rendezvous lease protocol.

"The rendezvous lease protocol [is] used by edge peers to subscribe to
the reception of messages propagated by the rendezvous peers" (§3.2).
Each edge peer holds a lease with exactly one rendezvous; it renews
the lease before expiry and fails over to another seed rendezvous when
its rendezvous stops answering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.config import PlatformConfig
from repro.endpoint.service import EndpointMessage, EndpointService
from repro.ids.jxtaid import PeerID
from repro.rendezvous.messages import LeaseCancel, LeaseGrant, LeaseRequest

#: Endpoint service name for lease traffic.
LEASE_SERVICE_NAME = "jxta.service.rdv.lease"


@dataclass(slots=True)
class EdgeLease:
    """Rendezvous-side record of one subscribed edge.  ``slots=True``:
    a paper-scale rendezvous holds hundreds of these resident, and a
    renewal mutates the record in place instead of replacing it."""

    edge_peer: PeerID
    edge_address: str
    expires_at: float


class RdvLeaseServer:
    """Rendezvous-side lease bookkeeping."""

    def __init__(
        self,
        endpoint: EndpointService,
        config: PlatformConfig,
        local_adv: RdvAdvertisement,
        group_param: str,
    ) -> None:
        self.endpoint = endpoint
        self.config = config
        self.local_adv = local_adv
        #: interned edge-peer key -> lease (purge runs per message, so
        #: the map hashes ints); the heap is keyed by the lease expiry
        #: *at push time* — renewals only ever push expiry later, so a
        #: popped record is re-validated against the live lease and
        #: re-pushed instead of scanning every lease per purge
        self.interner = endpoint.interner
        self._leases: Dict[int, EdgeLease] = {}
        self._expiry_heap: List[Tuple[float, int]] = []
        self.grants = 0
        self.renewals = 0
        self._net = endpoint.network
        self._actor = endpoint.transport_address
        #: Flyweight grant body: the advertisement and duration are
        #: fixed for the server's lifetime, so every grant/renewal
        #: shares one immutable-in-transit body (receivers only read).
        self._grant_body = LeaseGrant(
            rdv_adv=local_adv, lease_duration=config.lease_duration
        )
        #: Hooks for the SRDI layer (an edge arriving/leaving changes
        #: which attribute tables this rendezvous is responsible for).
        self.on_edge_connected: Optional[Callable[[PeerID], None]] = None
        self.on_edge_disconnected: Optional[Callable[[PeerID], None]] = None
        endpoint.add_listener(LEASE_SERVICE_NAME, group_param, self._on_message)
        self.group_param = group_param

    # ------------------------------------------------------------------
    def edges(self) -> List[PeerID]:
        """Currently leased edge peers (expired leases are purged)."""
        self._purge(self.endpoint.sim.now)
        return [lease.edge_peer for lease in self._leases.values()]

    def has_edge(self, edge_peer: PeerID) -> bool:
        key = self.interner.lookup(edge_peer)
        lease = None if key is None else self._leases.get(key)
        return lease is not None and lease.expires_at > self.endpoint.sim.now

    def edge_address(self, edge_peer: PeerID) -> Optional[str]:
        key = self.interner.lookup(edge_peer)
        lease = None if key is None else self._leases.get(key)
        if lease is None or lease.expires_at <= self.endpoint.sim.now:
            return None
        return lease.edge_address

    def _purge(self, now: float) -> None:
        heap = self._expiry_heap
        leases = self._leases
        while heap and heap[0][0] <= now:
            _, key = heapq.heappop(heap)
            lease = leases.get(key)
            if lease is None:
                continue  # cancelled since the record was pushed
            if lease.expires_at <= now:
                del leases[key]
                obs = self._net.obs
                if obs is not None and obs.active:
                    obs.event(
                        now, "lease", "expire", self._actor,
                        edge=lease.edge_address,
                    )
                if self.on_edge_disconnected is not None:
                    self.on_edge_disconnected(lease.edge_peer)
            else:
                # renewed since the push: re-validate at the new expiry
                heapq.heappush(heap, (lease.expires_at, key))

    # ------------------------------------------------------------------
    def _on_message(self, message: EndpointMessage) -> None:
        body = message.body
        now = self.endpoint.sim.now
        self._purge(now)
        if isinstance(body, LeaseRequest):
            key = self.interner.intern(body.edge_peer)
            lease = self._leases.get(key)
            is_new = lease is None
            if is_new:
                self._leases[key] = EdgeLease(
                    edge_peer=body.edge_peer,
                    edge_address=body.edge_address,
                    expires_at=now + self.config.lease_duration,
                )
                heapq.heappush(
                    self._expiry_heap,
                    (now + self.config.lease_duration, key),
                )
            else:
                # renewal: update the resident record in place (the
                # expiry heap re-validates against it on pop)
                lease.edge_peer = body.edge_peer
                lease.edge_address = body.edge_address
                lease.expires_at = now + self.config.lease_duration
            # the rendezvous must be able to reach its edges directly
            self.endpoint.router.add_direct_route(
                body.edge_peer, body.edge_address
            )
            if body.renewal:
                self.renewals += 1
            else:
                self.grants += 1
            obs = self._net.obs
            if obs is not None and obs.active:
                obs.event(
                    now, "lease", "renew" if body.renewal else "grant",
                    self._actor, edge=body.edge_address,
                )
            self.endpoint.send_direct(
                body.edge_address,
                EndpointMessage(
                    src_peer=self.endpoint.peer_id,
                    dst_peer=body.edge_peer,
                    service_name=LEASE_SERVICE_NAME,
                    service_param=self.group_param,
                    body=self._grant_body,
                ),
            )
            if is_new and self.on_edge_connected is not None:
                self.on_edge_connected(body.edge_peer)
        elif isinstance(body, LeaseCancel):
            key = self.interner.lookup(body.peer)
            if key is not None and self._leases.pop(key, None) is not None:
                obs = self._net.obs
                if obs is not None and obs.active:
                    obs.event(
                        now, "lease", "cancel", self._actor,
                        peer=body.peer.short(),
                    )
                if self.on_edge_disconnected is not None:
                    self.on_edge_disconnected(body.peer)


class EdgeLeaseClient:
    """Edge-side lease client with renewal and seed failover."""

    def __init__(
        self,
        endpoint: EndpointService,
        config: PlatformConfig,
        group_param: str,
    ) -> None:
        if not config.seeds:
            raise ValueError("an edge peer needs at least one seed rendezvous")
        self.endpoint = endpoint
        self.config = config
        self.group_param = group_param
        self.rdv_adv: Optional[RdvAdvertisement] = None
        self._seed_index = 0
        self._request_timeout_handle = None
        self._renewal_handle = None
        self._connecting = False
        self.connect_attempts = 0
        #: Hooks for upper layers (discovery republishes its indexes
        #: "whenever they connect to a new rendezvous peer", §3.3).
        self.on_connected: Optional[Callable[[RdvAdvertisement], None]] = None
        self.on_disconnected: Optional[Callable[[], None]] = None
        self._net = endpoint.network
        self._actor = endpoint.transport_address
        #: Flyweight request messages (one per renewal flag): the edge
        #: peer, its address and the lease service target never change,
        #: so the steady-state renewal tick sends a cached message with
        #: a cached body instead of allocating either.  Safe to share:
        #: requests are only read in transit (``forwarded()`` copies).
        self._request_messages: Dict[bool, EndpointMessage] = {}
        endpoint.add_listener(LEASE_SERVICE_NAME, group_param, self._on_message)

    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self.rdv_adv is not None

    @property
    def rdv_peer_id(self) -> Optional[PeerID]:
        return self.rdv_adv.rdv_peer_id if self.rdv_adv else None

    @property
    def rdv_address(self) -> Optional[str]:
        return self.rdv_adv.route_hint if self.rdv_adv else None

    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Request a lease from the next seed rendezvous."""
        if self._connecting:
            return
        self._connecting = True
        self._request_lease(renewal=False)

    def disconnect(self) -> None:
        """Cancel the lease and stop renewing."""
        if self._renewal_handle is not None:
            self._renewal_handle.cancel()
            self._renewal_handle = None
        if self._request_timeout_handle is not None:
            self._request_timeout_handle.cancel()
            self._request_timeout_handle = None
        self._connecting = False
        if self.rdv_adv is not None:
            self.endpoint.send_direct(
                self.rdv_adv.route_hint,
                self._message(LeaseCancel(self.endpoint.peer_id), self.rdv_peer_id),
            )
            self.rdv_adv = None
            self.endpoint.router.set_default_route(None)
            if self.on_disconnected is not None:
                self.on_disconnected()

    # ------------------------------------------------------------------
    def _message(self, body, dst_peer) -> EndpointMessage:
        return EndpointMessage(
            src_peer=self.endpoint.peer_id,
            dst_peer=dst_peer,
            service_name=LEASE_SERVICE_NAME,
            service_param=self.group_param,
            body=body,
        )

    def _current_target(self) -> str:
        if self.rdv_adv is not None:
            return self.rdv_adv.route_hint
        return self.config.seeds[self._seed_index % len(self.config.seeds)]

    def _request_lease(self, renewal: bool) -> None:
        self.connect_attempts += 1
        target = self._current_target()
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                self.endpoint.sim.now, "lease",
                "request.renew" if renewal else "request.connect",
                self._actor, rdv=target,
            )
        request = self._request_messages.get(renewal)
        if request is None:
            request = self._message(
                LeaseRequest(
                    edge_peer=self.endpoint.peer_id,
                    edge_address=self.endpoint.transport_address,
                    renewal=renewal,
                ),
                dst_peer=None,
            )
            self._request_messages[renewal] = request
        self.endpoint.send_direct(target, request)
        self._request_timeout_handle = self.endpoint.sim.schedule(
            self.config.lease_request_timeout,
            self._request_timed_out,
            label="lease.timeout",
        )

    def _request_timed_out(self) -> None:
        # rendezvous is unreachable: fail over to the next seed
        self._request_timeout_handle = None
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(self.endpoint.sim.now, "lease", "failover", self._actor)
        was_connected = self.rdv_adv is not None
        if was_connected:
            self.rdv_adv = None
            self.endpoint.router.set_default_route(None)
            if self.on_disconnected is not None:
                self.on_disconnected()
        self._seed_index += 1
        self._request_lease(renewal=False)

    def _schedule_renewal(self, lease_duration: float) -> None:
        delay = lease_duration * self.config.lease_renewal_fraction
        if self._renewal_handle is not None:
            self._renewal_handle.cancel()
        self._renewal_handle = self.endpoint.sim.schedule(
            delay, self._renew, label="lease.renew"
        )

    def _renew(self) -> None:
        if self._connecting:
            self._request_lease(renewal=True)

    # ------------------------------------------------------------------
    def _on_message(self, message: EndpointMessage) -> None:
        body = message.body
        if isinstance(body, LeaseGrant):
            if self._request_timeout_handle is not None:
                self._request_timeout_handle.cancel()
                self._request_timeout_handle = None
            newly_connected = (
                self.rdv_adv is None
                or self.rdv_adv.rdv_peer_id != body.rdv_adv.rdv_peer_id
            )
            self.rdv_adv = body.rdv_adv
            # all traffic for peers we cannot resolve goes via our rdv
            self.endpoint.router.add_direct_route(
                body.rdv_adv.rdv_peer_id, body.rdv_adv.route_hint
            )
            self.endpoint.router.set_default_route(body.rdv_adv.route_hint)
            self._schedule_renewal(body.lease_duration)
            if newly_connected and self.on_connected is not None:
                self.on_connected(body.rdv_adv)
