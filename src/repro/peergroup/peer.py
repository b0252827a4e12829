"""Edge and rendezvous peers: the full protocol stack, assembled.

A peer owns one endpoint service bound to a transport address on a
physical node and one ERP router; everything above is organized in
per-group :class:`~repro.peergroup.context.GroupContext` objects — the
primary group (the Net peer group by default) plus any groups joined
later with :meth:`Peer.join_group`.  A peer can be rendezvous in one
group and edge in another, as in JXTA.

The classic single-group attribute paths (``peer.discovery``,
``peer.view``, ``peer.lease_client``, ...) remain available: they
delegate to the primary group's context.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.advertisement.peeradv import PeerAdvertisement
from repro.config import PlatformConfig
from repro.discovery.replica import ReplicaFunction
from repro.endpoint.address import tcp_address
from repro.endpoint.relay import RelayClient, RelayServer
from repro.endpoint.router import EndpointRouter
from repro.endpoint.service import EndpointService
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerGroupID, PeerID
from repro.network.site import Node
from repro.network.transport import Network
from repro.peergroup.context import (
    EdgeGroupContext,
    GroupContext,
    RendezvousGroupContext,
)
from repro.sim.kernel import Simulator

#: Default JXTA TCP port.
DEFAULT_PORT = 9701


class Peer:
    """Common base: endpoint + router + per-group contexts."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        peer_id: PeerID,
        config: PlatformConfig,
        name: str = "",
        group_id: PeerGroupID = NET_PEER_GROUP_ID,
        port: int = DEFAULT_PORT,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.peer_id = peer_id
        self.config = config
        self.name = name or f"peer-{peer_id.short()}"
        self.group_id = group_id
        self.address = tcp_address(node.hostname, port)
        self.endpoint = EndpointService(sim, network, peer_id, node, self.address)
        self.router = EndpointRouter(self.endpoint)
        #: group id -> membership context; populated by subclasses
        #: (primary) and :meth:`join_group` (secondary)
        self.contexts: Dict[PeerGroupID, GroupContext] = {}
        self._running = False

    # ------------------------------------------------------------------
    # group membership
    # ------------------------------------------------------------------
    @property
    def primary(self) -> GroupContext:
        """The context of the peer's primary group."""
        return self.contexts[self.group_id]

    def context(self, group_id: PeerGroupID) -> GroupContext:
        """The membership context for ``group_id`` (KeyError if not a
        member)."""
        return self.contexts[group_id]

    def join_group(
        self,
        group_id: PeerGroupID,
        role: str = "edge",
        seeds: Sequence[str] = (),
        config: Optional[PlatformConfig] = None,
        replica_fn: Optional[ReplicaFunction] = None,
        discovery_mode: str = "lcdht",
    ) -> GroupContext:
        """Join an additional peer group as ``role`` ("edge" or
        "rendezvous").  Edge membership needs at least one seed
        rendezvous *of that group*.  The context starts immediately if
        the peer is running.
        """
        if group_id in self.contexts:
            raise ValueError(f"already a member of {group_id.short()}")
        base = config if config is not None else self.config
        if seeds:
            base = base.with_seeds(list(seeds))
        if role == "rendezvous":
            context: GroupContext = RendezvousGroupContext(
                self, group_id, base,
                replica_fn=replica_fn, discovery_mode=discovery_mode,
            )
        elif role == "edge":
            context = EdgeGroupContext(
                self, group_id, base,
                replica_fn=replica_fn, discovery_mode=discovery_mode,
            )
        else:
            raise ValueError(f"unknown role {role!r} (edge or rendezvous)")
        self.contexts[group_id] = context
        if self._running:
            context.start()
        return context

    def leave_group(self, group_id: PeerGroupID) -> None:
        """Leave a secondary group (the primary group cannot be left)."""
        if group_id == self.group_id:
            raise ValueError("cannot leave the primary group; stop the peer")
        context = self.contexts.pop(group_id, None)
        if context is not None:
            context.stop()

    # ------------------------------------------------------------------
    # primary-group shorthands (the classic single-group API)
    # ------------------------------------------------------------------
    @property
    def resolver(self):
        return self.primary.resolver

    @property
    def cache(self):
        return self.primary.cache

    @property
    def discovery(self):
        return self.primary.discovery

    @property
    def is_rendezvous(self) -> bool:
        return self.primary.is_rendezvous

    @property
    def running(self) -> bool:
        return self._running

    def peer_advertisement(self) -> PeerAdvertisement:
        """This peer's own peer advertisement (primary group)."""
        return PeerAdvertisement(self.peer_id, self.group_id, self.name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the transport address and start every group context."""
        if self._running:
            raise RuntimeError(f"{self.name} already started")
        self.endpoint.attach()
        self._running = True
        for context in self.contexts.values():
            context.start()
        self._start_peer_services()

    def stop(self) -> None:
        """Graceful shutdown: stop protocols, unbind the address."""
        if not self._running:
            return
        self._stop_peer_services()
        for context in self.contexts.values():
            context.stop()
        self.endpoint.detach()
        self._running = False

    def crash(self) -> None:
        """Abrupt failure: the address vanishes mid-conversation, no
        goodbye messages (used by the churn experiments)."""
        if not self._running:
            return
        self._stop_peer_services()
        for context in self.contexts.values():
            context.halt()
        self.endpoint.detach()
        self._running = False

    def _start_peer_services(self) -> None:
        """Per-peer (non-group) services; subclasses extend."""

    def _stop_peer_services(self) -> None:
        """Per-peer (non-group) services; subclasses extend."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "rdv" if self.is_rendezvous else "edge"
        return f"<{kind} {self.name} @ {self.address}>"


class RendezvousPeer(Peer):
    """Peer whose primary-group role is rendezvous."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        peer_id: PeerID,
        config: PlatformConfig,
        name: str = "",
        group_id: PeerGroupID = NET_PEER_GROUP_ID,
        port: int = DEFAULT_PORT,
        replica_fn: Optional[ReplicaFunction] = None,
        discovery_mode: str = "lcdht",
    ) -> None:
        super().__init__(sim, network, node, peer_id, config, name, group_id, port)
        self.contexts[group_id] = RendezvousGroupContext(
            self, group_id, config,
            replica_fn=replica_fn, discovery_mode=discovery_mode,
        )
        # every rendezvous can relay for HTTP (NAT'd) edges
        self.relay_server = RelayServer(self.endpoint, group_id.urn())

    # primary-group shorthands specific to the rendezvous role --------
    @property
    def rdv_adv(self):
        return self.primary.rdv_adv

    @property
    def peerview_protocol(self):
        return self.primary.peerview_protocol

    @property
    def lease_server(self):
        return self.primary.lease_server

    @property
    def propagation(self):
        return self.primary.propagation

    @property
    def view(self):
        """The primary group's local peerview (shorthand)."""
        return self.primary.view


class EdgePeer(Peer):
    """Peer whose primary-group role is edge."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        peer_id: PeerID,
        config: PlatformConfig,
        name: str = "",
        group_id: PeerGroupID = NET_PEER_GROUP_ID,
        port: int = DEFAULT_PORT,
        replica_fn: Optional[ReplicaFunction] = None,
        discovery_mode: str = "lcdht",
        transport: str = "tcp",
    ) -> None:
        if transport not in ("tcp", "http"):
            raise ValueError(f"unknown transport {transport!r} (tcp or http)")
        super().__init__(sim, network, node, peer_id, config, name, group_id, port)
        self.transport = transport
        context = EdgeGroupContext(
            self, group_id, config,
            replica_fn=replica_fn, discovery_mode=discovery_mode,
        )
        self.contexts[group_id] = context
        self.relay_client: Optional[RelayClient] = None
        if transport == "http":
            # firewalled edge: all inbound traffic rides the relay
            # queue of the leased rendezvous, drained by polling
            self.relay_client = RelayClient(self.endpoint, group_id.urn())
            previous_hook = context.lease_client.on_connected

            def _attach_relay(rdv_adv, _prev=previous_hook):
                self.relay_client.attach(rdv_adv.route_hint)
                if _prev is not None:
                    _prev(rdv_adv)

            # DiscoveryService wrapped on_connected at context build
            # time; wrap again so the relay attaches first and the SRDI
            # re-publication advertises the relay address
            context.lease_client.on_connected = _attach_relay

    # primary-group shorthands specific to the edge role ---------------
    @property
    def lease_client(self):
        return self.primary.lease_client

    def _stop_peer_services(self) -> None:
        if self.relay_client is not None:
            self.relay_client.detach()
