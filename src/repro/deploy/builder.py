"""Overlay builder: description → configured peers on the grid.

Mirrors what the paper's ADAGE plug-in did: compute every peer's
address up front, generate per-peer configurations (seed lists
according to the bootstrap topology), place one peer per physical
node round-robin across sites, and instantiate everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import PlatformConfig
from repro.deploy.description import OverlayDescription
from repro.deploy.topologies import make_topology
from repro.discovery.replica import ReplicaFunction
from repro.endpoint.address import tcp_address
from repro.network.site import place_nodes
from repro.network.transport import Network
from repro.peergroup.group import PeerGroup
from repro.peergroup.peer import DEFAULT_PORT, EdgePeer, RendezvousPeer
from repro.sim.kernel import Simulator


@dataclass
class DeployedOverlay:
    """Result of :func:`build_overlay`."""

    group: PeerGroup
    description: OverlayDescription
    rendezvous: List[RendezvousPeer]
    edges: List[EdgePeer]

    def start(self) -> None:
        self.group.start_all()

    def stop(self) -> None:
        self.group.stop_all()

    def summary(self) -> dict:
        """One-glance deployment state for logs and notebooks."""
        stats = self.group.network.stats
        return {
            "r": self.group.r,
            "e": self.group.e,
            "property_2": self.group.property_2_satisfied(),
            "peerview_sizes": self.group.peerview_sizes(),
            "connected_edges": self.group.connected_edge_count(),
            "srdi_entries": self.group.total_srdi_entries(),
            "messages_sent": stats.messages_sent,
            "bytes_sent": stats.bytes_sent,
        }


def build_overlay(
    sim: Simulator,
    network: Network,
    config: PlatformConfig,
    description: OverlayDescription,
    replica_fn: Optional[ReplicaFunction] = None,
    discovery_mode: str = "lcdht",
) -> DeployedOverlay:
    """Instantiate the overlay described by ``description``.

    Each peer gets its own physical node, dealt round-robin across the
    nine Grid'5000 sites, exactly like the paper's multi-site
    deployments.
    """
    r = description.rendezvous_count
    nodes = place_nodes(r + description.edge_count)
    rdv_nodes, edge_nodes = nodes[:r], nodes[r:]

    # addresses are deterministic (one peer per node, default port), so
    # seed lists can be generated before any peer exists — this is the
    # "generation of configuration files" step of the ADAGE plug-in
    rdv_addresses = [
        tcp_address(node.hostname, DEFAULT_PORT) for node in rdv_nodes
    ]
    seed_graph = make_topology(description.topology, r)

    group = PeerGroup(
        sim, network, config,
        replica_fn=replica_fn, discovery_mode=discovery_mode,
    )
    rendezvous: List[RendezvousPeer] = []
    for i, node in enumerate(rdv_nodes):
        peer_config = config.with_seeds(
            [rdv_addresses[j] for j in seed_graph[i]]
        )
        rendezvous.append(
            group.create_rendezvous(node, name=f"rdv-{i}", config=peer_config)
        )

    edges: List[EdgePeer] = []
    for i, (node, rdv_index) in enumerate(
        zip(edge_nodes, description.attachment())
    ):
        edges.append(
            group.create_edge(
                node, seeds=[rdv_addresses[rdv_index]], name=f"edge-{i}"
            )
        )

    return DeployedOverlay(
        group=group, description=description, rendezvous=rendezvous, edges=edges
    )
