"""Unit tests for topologies, descriptions and the overlay builder."""

import pytest

from repro.config import PlatformConfig
from repro.deploy import (
    OverlayDescription,
    build_overlay,
    chain_topology,
    star_topology,
    tree_topology,
)
from repro.deploy.topologies import make_topology
from repro.network import Network
from repro.sim import Simulator


class TestTopologies:
    def test_chain(self):
        assert chain_topology(4) == [[], [0], [1], [2]]

    def test_tree_fanout_2(self):
        assert tree_topology(7) == [[], [0], [0], [1], [1], [2], [2]]

    def test_tree_fanout_3(self):
        assert tree_topology(5, fanout=3) == [[], [0], [0], [0], [1]]

    def test_star(self):
        assert star_topology(4) == [[], [0], [0], [0]]

    def test_singleton(self):
        for build in (chain_topology, tree_topology, star_topology):
            assert build(1) == [[]]

    def test_invalid_sizes(self):
        for build in (chain_topology, tree_topology, star_topology):
            with pytest.raises(ValueError):
                build(0)
        with pytest.raises(ValueError):
            tree_topology(3, fanout=0)

    def test_make_topology_dispatch(self):
        assert make_topology("chain", 3) == chain_topology(3)
        assert make_topology("tree", 7) == tree_topology(7)
        with pytest.raises(ValueError):
            make_topology("ring", 3)


class TestDescription:
    def test_default_attachment_round_robin(self):
        d = OverlayDescription(rendezvous_count=3, edge_count=5)
        assert d.attachment() == [0, 1, 2, 0, 1]

    def test_explicit_attachment(self):
        d = OverlayDescription(
            rendezvous_count=5, edge_count=4, edge_attachment=[0, 0, 1, 4]
        )
        assert d.attachment() == [0, 0, 1, 4]

    def test_paper_config_b(self):
        # 50 edges over 5 rendezvous (configuration B of §4.2)
        d = OverlayDescription(
            rendezvous_count=150,
            edge_count=50,
            edge_attachment=[i % 5 for i in range(50)],
        )
        attachment = d.attachment()
        assert len(set(attachment)) == 5
        assert len(attachment) == 50

    def test_attachment_length_mismatch(self):
        with pytest.raises(ValueError):
            OverlayDescription(
                rendezvous_count=2, edge_count=3, edge_attachment=[0, 1]
            )

    def test_attachment_out_of_range(self):
        with pytest.raises(ValueError):
            OverlayDescription(
                rendezvous_count=2, edge_count=1, edge_attachment=[2]
            )

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            OverlayDescription(rendezvous_count=0)
        with pytest.raises(ValueError):
            OverlayDescription(rendezvous_count=1, edge_count=-1)


class TestBuilder:
    def _build(self, description):
        sim = Simulator(seed=1)
        net = Network(sim)
        return build_overlay(sim, net, PlatformConfig(), description)

    def test_counts(self):
        overlay = self._build(
            OverlayDescription(rendezvous_count=5, edge_count=3)
        )
        assert overlay.group.r == 5
        assert overlay.group.e == 3

    def test_chain_seed_lists(self):
        overlay = self._build(OverlayDescription(rendezvous_count=3))
        assert overlay.rendezvous[0].config.seeds == []
        assert overlay.rendezvous[1].config.seeds == [overlay.rendezvous[0].address]
        assert overlay.rendezvous[2].config.seeds == [overlay.rendezvous[1].address]

    def test_edges_seeded_to_attached_rdv(self):
        overlay = self._build(
            OverlayDescription(
                rendezvous_count=2, edge_count=2, edge_attachment=[1, 1]
            )
        )
        for edge in overlay.edges:
            assert edge.config.seeds == [overlay.rendezvous[1].address]

    def test_peers_spread_across_all_nine_sites(self):
        overlay = self._build(OverlayDescription(rendezvous_count=18))
        sites = {r.node.site.name for r in overlay.rendezvous}
        assert len(sites) == 9

    def test_unique_addresses(self):
        overlay = self._build(
            OverlayDescription(rendezvous_count=10, edge_count=10)
        )
        addresses = [p.address for p in overlay.group.all_peers]
        assert len(set(addresses)) == len(addresses)

    def test_start_stop(self):
        overlay = self._build(OverlayDescription(rendezvous_count=2, edge_count=1))
        overlay.start()
        assert all(p.running for p in overlay.group.all_peers)
        overlay.stop()
        assert not any(p.running for p in overlay.group.all_peers)

    def test_one_replica_function_per_overlay(self):
        from repro.discovery.replica import ReplicaFunction

        description = OverlayDescription(rendezvous_count=3, edge_count=2)
        overlay, other = self._build(description), self._build(description)
        (shared,) = {id(p.discovery.replica_fn) for p in overlay.group.all_peers}
        assert shared == id(overlay.group.replica_fn)
        assert overlay.group.replica_fn is not other.group.replica_fn

        sim = Simulator(seed=1)
        injected = ReplicaFunction(max_hash=200, hash_fn=lambda key: 116)
        overlay = build_overlay(
            sim, Network(sim), PlatformConfig(), description, replica_fn=injected
        )
        assert all(
            p.discovery.replica_fn is injected for p in overlay.group.all_peers
        )

    def test_summary(self):
        overlay = self._build(OverlayDescription(rendezvous_count=3, edge_count=1))
        overlay.start()
        overlay.group.sim.run(until=600.0)
        summary = overlay.summary()
        assert summary["r"] == 3
        assert summary["e"] == 1
        assert summary["connected_edges"] == 1
        assert summary["messages_sent"] > 0
