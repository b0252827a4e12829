"""Integration: Figure 2's message walkthrough, at the wire level.

The paper's Figure 2 enumerates the exact messages of a publish and a
lookup on consistent peerviews.  This test pins them on the obs
tracer's wire view (``tests.wire``):

* publish — (1) E1's SRDI push to R1, (2) R1's replica copy to R4;
* lookup — (1) E2's query to R2, (2) R2's forward to the replica,
  (3) the replica's forward to E1, (4) E1's response to E2.
"""

from repro.advertisement.peeradv import PeerAdvertisement
from repro.config import PlatformConfig
from repro.discovery.replica import ReplicaFunction
from repro.experiments.table1 import EXAMPLE_HASH, EXAMPLE_MAX_HASH, PAPER_RDV_IDS
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID
from repro.network import Network
from repro.network.site import place_nodes
from repro.peergroup.group import PeerGroup
from repro.sim import HOURS, MINUTES, Simulator
from tests.wire import hops, trace_wire


def build_paper_overlay():
    """The exact S of §3.3: R1..R6 with IDs 006..180, E1 on R1, E2 on R2."""
    sim = Simulator(seed=1)
    network = Network(sim)
    config = PlatformConfig().with_overrides(pve_expiration=10 * HOURS)
    replica_fn = ReplicaFunction(
        max_hash=EXAMPLE_MAX_HASH, hash_fn=lambda key: EXAMPLE_HASH
    )
    group = PeerGroup(sim, network, config, replica_fn=replica_fn)
    nodes = place_nodes(8)
    rdvs = []
    for i, int_id in enumerate(PAPER_RDV_IDS):
        pid = PeerID.from_int(NET_PEER_GROUP_ID, int_id)
        cfg = config.with_seeds([rdvs[-1].address] if rdvs else [])
        rdvs.append(
            group.create_rendezvous(nodes[i], name=f"R{i + 1}", config=cfg, peer_id=pid)
        )
    e1 = group.create_edge(nodes[6], seeds=[rdvs[0].address], name="E1")
    e2 = group.create_edge(nodes[7], seeds=[rdvs[1].address], name="E2")
    group.start_all()
    sim.run(until=10 * MINUTES)
    assert group.property_2_satisfied()
    return sim, network, group, rdvs, e1, e2


class TestFigure2Walkthrough:
    def test_publish_is_two_srdi_messages_to_r1_and_r4(self):
        sim, network, group, rdvs, e1, e2 = build_paper_overlay()
        obs = trace_wire(network)
        e1.discovery.publish(
            PeerAdvertisement(e1.peer_id, e1.group_id, "Test"),
            expiration=2 * HOURS,
        )
        e1.discovery.pusher.push_now()
        sim.run(until=sim.now + 30.0)
        srdi = hops(obs, ("ResolverSrdiMessage",))
        assert len(srdi) == 2
        # step 1: E1 -> R1 (its rendezvous)
        assert srdi[0][:2] == (e1.address, rdvs[0].address)
        # step 2: R1 -> R4 (the replica for hash 116 is rank 3 = R4)
        assert srdi[1][:2] == (rdvs[0].address, rdvs[3].address)

    def test_lookup_is_four_resolver_messages(self):
        sim, network, group, rdvs, e1, e2 = build_paper_overlay()
        e1.discovery.publish(
            PeerAdvertisement(e1.peer_id, e1.group_id, "Test"),
            expiration=2 * HOURS,
        )
        e1.discovery.pusher.push_now()
        sim.run(until=sim.now + 1 * MINUTES)

        obs = trace_wire(network)
        results = []
        e2.discovery.get_remote_advertisements(
            "jxta:PA", "Name", "Test",
            callback=lambda advs, lat: results.append(advs),
        )
        sim.run(until=sim.now + 30.0)
        assert results

        assert hops(obs, ("ResolverQuery", "ResolverResponse")) == [
            # 1. E2 -> R2 (its rendezvous)
            (e2.address, rdvs[1].address, "ResolverQuery"),
            # 2. R2 -> R4 (the computed replica peer)
            (rdvs[1].address, rdvs[3].address, "ResolverQuery"),
            # 3. R4 -> E1 (the publisher)
            (rdvs[3].address, e1.address, "ResolverQuery"),
            # 4. E1 -> E2 (the advertisement, straight back)
            (e1.address, e2.address, "ResolverResponse"),
        ]
