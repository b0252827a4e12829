"""Unit tests for peer assembly and the PeerGroup registry."""

import pytest

from repro.config import PlatformConfig
from repro.discovery.replica import ReplicaFunction
from repro.ids.jxtaid import NET_PEER_GROUP_ID
from repro.network import Network
from repro.network.site import place_nodes
from repro.peergroup import PeerGroup
from repro.sim import MINUTES, Simulator


@pytest.fixture
def group():
    sim = Simulator(seed=4)
    network = Network(sim)
    return PeerGroup(sim, network, PlatformConfig())


def _services(peer):
    """The service names a peer's endpoint has listeners for."""
    return {name for name, _param in peer.endpoint._listeners}


class TestConstruction:
    def test_rendezvous_assembly(self, group):
        node = place_nodes(1)[0]
        rdv = group.create_rendezvous(node)
        assert rdv.is_rendezvous
        assert rdv.rdv_adv.route_hint == rdv.address
        assert rdv.view.local_peer_id == rdv.peer_id
        assert rdv.discovery.is_rendezvous
        assert group.r == 1
        # the Figure 1 stack and nothing else: no pipe or peer-info service
        assert _services(rdv) == {
            "jxta.service.peerview",
            "jxta.service.rdv.lease",
            "jxta.service.rdv.propagate",
            "jxta.service.relay",
            "jxta.service.resolver",
        }
        assert set(rdv.resolver._handlers) == {"jxta.service.discovery"}

    def test_edge_assembly(self, group):
        nodes = place_nodes(2)
        rdv = group.create_rendezvous(nodes[0])
        edge = group.create_edge(nodes[1], seeds=[rdv.address])
        assert not edge.is_rendezvous
        assert edge.config.seeds == [rdv.address]
        assert not edge.discovery.is_rendezvous
        assert group.e == 1
        assert _services(edge) == {
            "jxta.service.rdv.lease", "jxta.service.resolver",
        }
        assert set(edge.resolver._handlers) == {"jxta.service.discovery"}

    def test_port_allocation_per_node(self, group):
        node = place_nodes(1)[0]
        a = group.create_rendezvous(node)
        b = group.create_rendezvous(node)
        assert a.address != b.address

    def test_peer_registry(self, group):
        node = place_nodes(1)[0]
        rdv = group.create_rendezvous(node)
        assert group.peer(rdv.peer_id) is rdv

    def test_names_sequence(self, group):
        nodes = place_nodes(3)
        r0 = group.create_rendezvous(nodes[0])
        r1 = group.create_rendezvous(nodes[1])
        assert (r0.name, r1.name) == ("rdv-0", "rdv-1")

    def test_custom_peer_id(self, group):
        from repro.ids.jxtaid import PeerID

        node = place_nodes(1)[0]
        pid = PeerID.from_int(NET_PEER_GROUP_ID, 77)
        rdv = group.create_rendezvous(node, peer_id=pid)
        assert rdv.peer_id == pid


class TestGroupReplicaFunction:
    """``ReplicaPeer(tuple)`` is the group's function: every peer a
    group creates ranks with the group's one object (and its one
    tuple -> hash memo)."""

    def test_peers_of_one_group_share_it(self, group):
        nodes = place_nodes(3)
        rdvs = [group.create_rendezvous(n) for n in nodes[:2]]
        edge = group.create_edge(nodes[2], seeds=[rdvs[0].address])
        assert isinstance(group.replica_fn, ReplicaFunction)
        for peer in (*rdvs, edge):
            assert peer.discovery.replica_fn is group.replica_fn

    def test_two_groups_on_one_network_do_not_share(self, group):
        other = PeerGroup(group.sim, group.network, PlatformConfig())
        node = place_nodes(1)[0]
        a, b = group.create_rendezvous(node), other.create_rendezvous(node)
        assert a.discovery.replica_fn is not b.discovery.replica_fn

    def test_explicit_replica_fn_reaches_every_peer(self):
        sim = Simulator(seed=4)
        injected = ReplicaFunction(max_hash=200, hash_fn=lambda key: 116)
        group = PeerGroup(sim, Network(sim), PlatformConfig(), replica_fn=injected)
        nodes = place_nodes(2)
        rdv = group.create_rendezvous(nodes[0])
        edge = group.create_edge(nodes[1], seeds=[rdv.address])
        assert group.replica_fn is injected
        assert rdv.discovery.replica_fn is injected
        assert edge.discovery.replica_fn is injected

    def test_standalone_discovery_service_still_ranks(self, group):
        from repro.advertisement import AdvertisementCache
        from repro.discovery.service import DiscoveryService
        from repro.resolver.service import ResolverService

        rdv = group.create_rendezvous(place_nodes(1)[0])
        service = DiscoveryService(
            group.sim, group.config,
            ResolverService(rdv.endpoint, group_param="standalone"),
            AdvertisementCache(), is_rendezvous=True, view=rdv.view,
        )
        assert service.replica_fn is not group.replica_fn
        index_tuple = ("jxta:PA", "Name", "Test")
        assert service.replica_fn.rank(index_tuple, 6) == (
            group.replica_fn.rank(index_tuple, 6)
        )


class TestLifecycle:
    def test_double_start_rejected(self, group):
        node = place_nodes(1)[0]
        rdv = group.create_rendezvous(node)
        rdv.start()
        with pytest.raises(RuntimeError):
            rdv.start()

    def test_stop_before_start_is_noop(self, group):
        node = place_nodes(1)[0]
        group.create_rendezvous(node).stop()

    def test_peer_advertisement(self, group):
        node = place_nodes(1)[0]
        rdv = group.create_rendezvous(node, name="my-rdv")
        adv = rdv.peer_advertisement()
        assert adv.peer_id == rdv.peer_id
        assert adv.name == "my-rdv"


class TestObservables:
    def test_empty_group_property2_trivially_true(self, group):
        assert group.property_2_satisfied()
        assert group.peerview_sizes() == []
        assert group.global_peerview_target() == 0

    def test_stopped_peers_excluded_from_target(self, group):
        nodes = place_nodes(3)
        rdvs = [group.create_rendezvous(n) for n in nodes]
        group.start_all()
        group.sim.run(until=10 * MINUTES)
        assert group.global_peerview_target() == 2
        rdvs[0].stop()
        assert group.global_peerview_target() == 1
        assert len(group.peerview_sizes()) == 2
