"""Table 1 + Figure 2: the paper's worked publish/lookup example.

Six rendezvous peers with IDs 006, 020, 036, 050, 088, 180 and two
edges E1 (on R1) and E2 (on R2).  E1 publishes a peer advertisement
(type Peer, attribute Name, value Test) whose tuple hashes to 116 with
MAX_HASH = 200, so the replica rank is floor(116·6/200) = 3 → R4
(peer 050).  E2 then looks the advertisement up.

The experiment verifies, against the running stack:

* Table 1 — the peerview of every Ri orders the six peers identically
  and the replica function lands on rank 3 / peer 050;
* Figure 2 (left) — publication stores the tuple on R1 (the edge's
  rendezvous) and replicates it to R4, and nowhere else: 2 messages;
* Figure 2 (right) — the lookup resolves through R2 → R4 → E1 → E2
  in 4 messages when Property (2) holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.advertisement.peeradv import PeerAdvertisement
from repro.config import PlatformConfig
from repro.discovery.replica import ReplicaFunction
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID
from repro.metrics import render_table
from repro.network import Network
from repro.network.site import place_nodes
from repro.peergroup.group import PeerGroup
from repro.sim import HOURS, MINUTES, Simulator

#: The paper's rendezvous IDs, in publication (R1..R6) order.
PAPER_RDV_IDS = (6, 20, 36, 50, 88, 180)
#: The hash the example assumes for "PeerNameTest".
EXAMPLE_HASH = 116
EXAMPLE_MAX_HASH = 200

#: keyword arguments of :func:`run` per size; the worked example has one
SIZES = {"ci": {}, "full": {}}


@dataclass
class Table1Result:
    #: peerview entry rank -> rendezvous int ID, per observer
    peerviews: Dict[str, List[int]]
    replica_rank: int
    replica_int_id: int
    #: rendezvous (by name) holding the tuple after publication
    tuple_holders: List[str]
    lookup_latency_ms: float
    lookup_found: bool

    @property
    def matches_paper(self) -> bool:
        expected_order = sorted(PAPER_RDV_IDS)
        return (
            all(v == expected_order for v in self.peerviews.values())
            and self.replica_rank == 3
            and self.replica_int_id == 50
            and sorted(self.tuple_holders) == ["rdv-1", "rdv-4"]
            and self.lookup_found
        )


def run(seed: int = 1) -> Table1Result:
    sim = Simulator(seed=seed)
    network = Network(sim)
    config = PlatformConfig().with_overrides(pve_expiration=10 * HOURS)
    # injected hash: every tuple hashes to 116 in a 200-wide space
    replica_fn = ReplicaFunction(
        max_hash=EXAMPLE_MAX_HASH, hash_fn=lambda key: EXAMPLE_HASH
    )
    group = PeerGroup(sim, network, config, replica_fn=replica_fn)
    nodes = place_nodes(8)

    rdvs = []
    for i, int_id in enumerate(PAPER_RDV_IDS):
        pid = PeerID.from_int(NET_PEER_GROUP_ID, int_id)
        # chain bootstrap: Ri seeds to R(i-1)
        cfg = config.with_seeds([rdvs[-1].address] if rdvs else [])
        rdvs.append(
            group.create_rendezvous(
                nodes[i], name=f"rdv-{i + 1}", config=cfg, peer_id=pid
            )
        )
    e1 = group.create_edge(nodes[6], seeds=[rdvs[0].address], name="E1")
    e2 = group.create_edge(nodes[7], seeds=[rdvs[1].address], name="E2")
    group.start_all()

    # converge the six peerviews (Property (2) must hold for the
    # 4-message lookup of Figure 2)
    sim.run(until=10 * MINUTES)
    assert group.property_2_satisfied(), "example needs consistent peerviews"

    # Figure 2 (left): E1 publishes Adv (Peer / Name / Test)
    adv = PeerAdvertisement(e1.peer_id, e1.group_id, "Test")
    e1.discovery.publish(adv, expiration=2 * HOURS)
    sim.run(until=12 * MINUTES)

    int_id_of = {rdv.peer_id: PAPER_RDV_IDS[i] for i, rdv in enumerate(rdvs)}
    peerviews = {
        rdv.name: [int_id_of[p] for p in rdv.view.ordered_ids()]
        for rdv in rdvs
    }
    rank = replica_fn.rank(("jxta:PA", "Name", "Test"), 6)
    replica_id = int_id_of[rdvs[0].view.id_at(rank)]

    tuple_key = ("jxta:PA", "Name", "Test")
    holders = [
        rdv.name for rdv in rdvs if rdv.discovery.srdi.lookup(tuple_key, sim.now)
    ]

    # Figure 2 (right): E2 looks Adv up
    results = []
    e2.discovery.get_remote_advertisements(
        "jxta:PA", "Name", "Test",
        callback=lambda advs, latency: results.append((advs, latency)),
    )
    sim.run(until=13 * MINUTES)

    result = Table1Result(
        peerviews=peerviews,
        replica_rank=rank,
        replica_int_id=replica_id,
        tuple_holders=holders,
        lookup_latency_ms=results[0][1] * 1000.0 if results else float("nan"),
        lookup_found=bool(results),
    )
    print(render(result))
    return result


def render(result: Table1Result) -> str:
    header = ["observer"] + [f"entry {i}" for i in range(6)]
    rows = [
        [name] + [f"{v:03d}" for v in view]
        for name, view in sorted(result.peerviews.items())
    ]
    table = render_table(header, rows)
    return (
        "Table 1 — local peerview of each Ri (IDs as in the paper)\n\n"
        + table
        + "\n\n"
        + f"ReplicaPeer rank for hash {EXAMPLE_HASH} (MAX_HASH "
        + f"{EXAMPLE_MAX_HASH}): {result.replica_rank} -> peer "
        + f"{result.replica_int_id:03d} (paper: rank 3 -> 050 = R4)\n"
        + f"tuple stored on: {sorted(result.tuple_holders)} "
        + "(paper: R1 keeps a copy, R4 is the replica)\n"
        + f"lookup by E2: found={result.lookup_found} in "
        + f"{result.lookup_latency_ms:.1f} ms\n"
        + f"matches paper: {result.matches_paper}"
    )
