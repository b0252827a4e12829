"""Edge and rendezvous peers: the full protocol stack, assembled.

A peer owns one endpoint service bound to a transport address on a
physical node, one ERP router, and the services of its one peer group,
the Net peer group every experiment of the paper runs in: a resolver
channel and an advertisement cache, plus what its role adds — peerview,
lease server, propagation, LC-DHT discovery and a relay on a
rendezvous; lease client, SRDI pusher and discovery on an edge.
Group-scoped listeners are keyed by ``(service name, group URN)``, as
in JXTA.
"""

from __future__ import annotations

from typing import Optional

from repro.advertisement.cache import AdvertisementCache
from repro.advertisement.peeradv import PeerAdvertisement
from repro.advertisement.rdvadv import RdvAdvertisement
from repro.config import PlatformConfig
from repro.discovery.replica import ReplicaFunction
from repro.discovery.service import DiscoveryService
from repro.endpoint.address import tcp_address
from repro.endpoint.relay import RelayClient, RelayServer
from repro.endpoint.service import EndpointMessage, EndpointService
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID
from repro.network.site import Node
from repro.network.transport import Network
from repro.rendezvous.lease import EdgeLeaseClient, RdvLeaseServer
from repro.rendezvous.messages import PropagatedMessage
from repro.rendezvous.propagation import PROPAGATE_SERVICE_NAME, PropagationService
from repro.rendezvous.protocol import PeerViewProtocol
from repro.resolver.messages import ResolverQuery
from repro.resolver.service import ResolverService
from repro.sim.kernel import Simulator

#: Default JXTA TCP port.
DEFAULT_PORT = 9701


class Peer:
    """Common base: endpoint + router + the group's resolver and cache.
    A role subclass builds the rest and provides ``_start``, ``_stop``
    and ``_halt``."""

    #: the one peer group every peer belongs to
    group_id = NET_PEER_GROUP_ID
    is_rendezvous = False

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        peer_id: PeerID,
        config: PlatformConfig,
        name: str = "",
        port: int = DEFAULT_PORT,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.peer_id = peer_id
        self.config = config
        self.name = name or f"peer-{peer_id.short()}"
        self.address = tcp_address(node.hostname, port)
        self.endpoint = EndpointService(sim, network, peer_id, node, self.address)
        self.router = self.endpoint.router
        self.resolver = ResolverService(self.endpoint, group_param=self.group_id.urn())
        self.cache = AdvertisementCache()
        self.discovery: DiscoveryService  # built by the role
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def peer_advertisement(self) -> PeerAdvertisement:
        """This peer's own peer advertisement."""
        return PeerAdvertisement(self.peer_id, self.group_id, self.name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the transport address and start the role's protocols."""
        if self._running:
            raise RuntimeError(f"{self.name} already started")
        self.endpoint.attach()
        self._running = True
        self._start()
        # every JXTA peer publishes its own peer advertisement at boot,
        # so members are discoverable by name/PID within the group
        self.discovery.publish(self.peer_advertisement())

    def stop(self) -> None:
        """Graceful shutdown: stop protocols, unbind the address."""
        if not self._running:
            return
        self._stop()
        self.endpoint.detach()
        self._running = False

    def crash(self) -> None:
        """Abrupt failure: the address vanishes mid-conversation, no
        goodbye messages (used by the churn experiments)."""
        if not self._running:
            return
        self._halt()
        self.endpoint.detach()
        self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "rdv" if self.is_rendezvous else "edge"
        return f"<{kind} {self.name} @ {self.address}>"


class RendezvousPeer(Peer):
    """Super-peer: peerview + lease server + propagation + LC-DHT, and
    a relay for HTTP (NAT'd) edges."""

    is_rendezvous = True

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        peer_id: PeerID,
        config: PlatformConfig,
        name: str = "",
        port: int = DEFAULT_PORT,
        replica_fn: Optional[ReplicaFunction] = None,
        discovery_mode: str = "lcdht",
    ) -> None:
        super().__init__(sim, network, node, peer_id, config, name, port)
        group_param = self.group_id.urn()
        self.rdv_adv = RdvAdvertisement(
            rdv_peer_id=peer_id,
            group_id=self.group_id,
            name=self.name,
            route_hint=self.address,
        )
        self.peerview_protocol = PeerViewProtocol(
            self.endpoint, config, self.rdv_adv, group_param
        )
        self.lease_server = RdvLeaseServer(
            self.endpoint, config, self.rdv_adv, group_param
        )
        self.propagation = PropagationService(
            self.endpoint, self.resolver, self.view, config, group_param
        )
        self.resolver.propagator = self.propagation.propagate
        self.discovery = DiscoveryService(
            sim, config, self.resolver, self.cache,
            is_rendezvous=True, view=self.view, replica_fn=replica_fn,
            mode=discovery_mode,
        )
        # edges that disappear take their SRDI records with them
        self.lease_server.on_edge_disconnected = (
            self.discovery.srdi.remove_publisher
        )
        self.relay_server = RelayServer(self.endpoint, group_param)

    @property
    def view(self):
        """The local peerview."""
        return self.peerview_protocol.view

    def _start(self) -> None:
        self.peerview_protocol.start()
        self.discovery.start_maintenance()

    def _stop(self) -> None:
        self.discovery.stop_maintenance()
        self.peerview_protocol.stop()

    def _halt(self) -> None:
        # a crash loses all in-memory state: the peerview, the SRDI
        # store and the lease table vanish; the advertisement cache
        # survives (JXTA-C's CM is disk-backed)
        self._stop()
        now = self.sim.now
        for pid in list(self.view.known_ids()):
            self.view.remove(pid, now, reason="crash")
        self.peerview_protocol._seeds_contacted = False
        self.discovery.srdi.clear()
        self.lease_server._leases.clear()


class EdgePeer(Peer):
    """Regular peer: lease client + SRDI pusher + discovery; over HTTP,
    a relay client too."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        peer_id: PeerID,
        config: PlatformConfig,
        name: str = "",
        port: int = DEFAULT_PORT,
        replica_fn: Optional[ReplicaFunction] = None,
        discovery_mode: str = "lcdht",
        transport: str = "tcp",
    ) -> None:
        if transport not in ("tcp", "http"):
            raise ValueError(f"unknown transport {transport!r} (tcp or http)")
        super().__init__(sim, network, node, peer_id, config, name, port)
        self.transport = transport
        group_param = self.group_id.urn()
        self.lease_client = EdgeLeaseClient(self.endpoint, config, group_param)
        self.discovery = DiscoveryService(
            sim, config, self.resolver, self.cache,
            is_rendezvous=False, lease_client=self.lease_client,
            replica_fn=replica_fn, mode=discovery_mode,
        )
        self.resolver.propagator = self._propagate_via_rdv
        # firewalled edge: all inbound traffic rides the relay queue of
        # the leased rendezvous, drained by polling
        self.relay_client: Optional[RelayClient] = (
            RelayClient(self.endpoint, group_param)
            if transport == "http" else None
        )
        self.lease_client.on_connected = self._lease_connected

    def _lease_connected(self, rdv_adv: RdvAdvertisement) -> None:
        """A (new) rendezvous lease: attach the relay first, so that the
        SRDI re-publication advertises the relay address."""
        if self.relay_client is not None:
            self.relay_client.attach(rdv_adv.route_hint)
        self.discovery.pusher.rendezvous_changed()

    def _propagate_via_rdv(self, query: ResolverQuery) -> None:
        """Edge-originated group propagation goes through the leased
        rendezvous (the lease is the subscription to propagation)."""
        rdv_address = self.lease_client.rdv_address
        if rdv_address is None:
            raise RuntimeError(
                f"{self.name} cannot propagate in "
                f"{self.group_id.short()}: no rendezvous lease yet"
            )
        self.endpoint.send_direct(
            rdv_address,
            EndpointMessage(
                src_peer=self.peer_id,
                dst_peer=self.lease_client.rdv_peer_id,
                service_name=PROPAGATE_SERVICE_NAME,
                service_param=self.group_id.urn(),
                body=PropagatedMessage(
                    payload=query, ttl=self.config.propagate_ttl
                ),
            ),
        )

    def _start(self) -> None:
        self.lease_client.connect()
        self.discovery.pusher.start()

    def _stop(self) -> None:
        if self.relay_client is not None:
            self.relay_client.detach()
        self.discovery.pusher.stop()
        self.lease_client.disconnect()

    def _halt(self) -> None:
        # crash: no LeaseCancel farewell
        if self.relay_client is not None:
            self.relay_client.detach()
        self.discovery.pusher.stop()
        client = self.lease_client
        if client._renewal_handle is not None:
            client._renewal_handle.cancel()
            client._renewal_handle = None
        if client._request_timeout_handle is not None:
            client._request_timeout_handle.cancel()
            client._request_timeout_handle = None
        client._connecting = False
        client.rdv_adv = None
