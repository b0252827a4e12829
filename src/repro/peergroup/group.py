"""The peer group / overlay ``S = {Ri, i=1..r} ∪ {Ej, j=1..e}``.

A :class:`PeerGroup` tracks every peer of an overlay, hands out ports
and peer IDs, and provides the group-level observables the paper's
experiments need: per-rendezvous peerview sizes, Property (2)
satisfaction, and aggregate protocol statistics.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.config import PlatformConfig
from repro.discovery.replica import ReplicaFunction
from repro.ids.idfactory import IDFactory
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID
from repro.network.site import Node
from repro.network.transport import Network
from repro.peergroup.peer import DEFAULT_PORT, EdgePeer, Peer, RendezvousPeer
from repro.sim.kernel import Simulator


class PeerGroup:
    """Factory and registry for the peers of one overlay."""

    #: every overlay is the Net peer group (as every Peer's group_id)
    group_id = NET_PEER_GROUP_ID

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: PlatformConfig,
        replica_fn: Optional[ReplicaFunction] = None,
        discovery_mode: str = "lcdht",
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        # ReplicaPeer(tuple) is the group's function: one object, and one
        # tuple -> hash memo, shared by every peer this group creates
        self.replica_fn = replica_fn if replica_fn is not None else ReplicaFunction()
        self.discovery_mode = discovery_mode
        self.id_factory = IDFactory(sim.rng.stream("peergroup.ids"))
        self.rendezvous: List[RendezvousPeer] = []
        self.edges: List[EdgePeer] = []
        self._by_id: Dict[PeerID, Peer] = {}
        self._next_port: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _allocate_port(self, node: Node) -> int:
        port = self._next_port.get(node.node_id, DEFAULT_PORT)
        self._next_port[node.node_id] = port + 1
        return port

    def create_rendezvous(
        self,
        node: Node,
        name: str = "",
        config: Optional[PlatformConfig] = None,
        peer_id: Optional[PeerID] = None,
    ) -> RendezvousPeer:
        """Create (but do not start) a rendezvous peer on ``node``."""
        pid = peer_id if peer_id is not None else self.id_factory.new_peer_id(self.group_id)
        peer = RendezvousPeer(
            self.sim, self.network, node, pid,
            config if config is not None else self.config,
            name=name or f"rdv-{len(self.rendezvous)}",
            port=self._allocate_port(node),
            replica_fn=self.replica_fn,
            discovery_mode=self.discovery_mode,
        )
        self.rendezvous.append(peer)
        self._by_id[pid] = peer
        return peer

    def create_edge(
        self,
        node: Node,
        seeds: Sequence[str],
        name: str = "",
        config: Optional[PlatformConfig] = None,
        peer_id: Optional[PeerID] = None,
        transport: str = "tcp",
    ) -> EdgePeer:
        """Create (but do not start) an edge peer seeded at ``seeds``.

        ``transport="http"`` models a firewalled edge that receives
        through its rendezvous' relay queue by polling."""
        pid = peer_id if peer_id is not None else self.id_factory.new_peer_id(self.group_id)
        base = config if config is not None else self.config
        peer = EdgePeer(
            self.sim, self.network, node, pid,
            base.with_seeds(list(seeds)),
            name=name or f"edge-{len(self.edges)}",
            port=self._allocate_port(node),
            replica_fn=self.replica_fn,
            discovery_mode=self.discovery_mode,
            transport=transport,
        )
        self.edges.append(peer)
        self._by_id[pid] = peer
        return peer

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def peer(self, peer_id: PeerID) -> Peer:
        return self._by_id[peer_id]

    @property
    def all_peers(self) -> List[Peer]:
        return list(self.rendezvous) + list(self.edges)

    @property
    def r(self) -> int:
        """Number of rendezvous peers (the paper's ``r``)."""
        return len(self.rendezvous)

    @property
    def e(self) -> int:
        """Number of edge peers (the paper's ``e``)."""
        return len(self.edges)

    def start_all(self) -> None:
        for peer in self.all_peers:
            peer.start()

    def stop_all(self) -> None:
        for peer in self.all_peers:
            peer.stop()

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def peerview_sizes(self) -> List[int]:
        """Current ``l`` of every running rendezvous."""
        return [p.view.size for p in self.rendezvous if p.running]

    def global_peerview_target(self) -> int:
        """``g`` as measured (r − 1: every other rendezvous)."""
        return max(0, len([p for p in self.rendezvous if p.running]) - 1)

    def property_2_satisfied(self) -> bool:
        """Is Property (2) satisfied *right now*: every running
        rendezvous sees every other running rendezvous?"""
        target = self.global_peerview_target()
        return all(size == target for size in self.peerview_sizes())

    def connected_edge_count(self) -> int:
        return sum(1 for e in self.edges if e.lease_client.connected)

    def total_srdi_entries(self) -> int:
        return sum(len(p.discovery.srdi) for p in self.rendezvous)
