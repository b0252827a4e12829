"""Integration: a snapshot's bytes do not depend on ``PYTHONHASHSEED``,
nor on what the process ran before.

A ``set`` pickles in hash order, and the hash of a ``str``, ``bytes`` or
tuple of them changes with the interpreter's hash seed — so while the
SRDI reverse index, the cache's multi-member buckets, the pushers'
histories and the ID factory's mint record were hash sets, the blob of
one overlay had another sha256 in every process, and "byte-deterministic
checkpoint" (docs/CHECKPOINTS.md) held only inside one.  Every resident
collection is now a list or an insertion-ordered dict.

Two guards.  This file is also the script the first one runs: it prints
the blob digests of one small overlay, and the test compares the output
of two interpreters started under different hash seeds.  The second
walks the same graph in-process with the pure-Python pickler and finds
no hash-ordered container with more than one element — the property the
first one measures, with a name attached when it breaks.

Inside one process the blob held a third dependency: every in-flight
``Envelope`` carried an id drawn from a module-level counter, so the
same simulation snapshotted twice pickled other numbers the second
time.  No state is module-level any more; the last test builds the run
twice and compares.
"""

import hashlib
import io
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.network import Network
from repro.sim import MINUTES, Simulator
from repro.snapshot import snapshot_network
from repro.workload.catalog import Catalog

SRC = Path(__file__).resolve().parents[2] / "src"


def build():
    """12 rendezvous + 6 edges to minute 6: three edges publish the same
    200-item catalog (every SRDI tuple gains several publishers), one of
    them also eight documents that share a ``Name`` (a multi-member cache
    bucket; eight, so that no two hash seeds order it alike by chance)."""
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=12, topology="chain", edge_count=6),
    )
    overlay.start()
    sim.run(until=1 * MINUTES)
    catalog = Catalog.uniform(200)
    for edge in overlay.edges[:3]:
        for k in range(len(catalog)):
            edge.discovery.publish(catalog.adv(k))
    for n in range(1, 9):
        overlay.edges[0].discovery.publish(RdvAdvertisement(
            rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
            group_id=NET_PEER_GROUP_ID, name="twin",
        ))
    sim.run(until=6 * MINUTES)
    return network, overlay


def blob_digests():
    """sha256 of the overlay's blob, and of it again while the network
    holds three WAN partitions (named in either argument order)."""
    network, overlay = build()
    plain = snapshot_network(network, extra={"overlay": overlay})
    for pair in (("rennes", "sophia"), ("orsay", "lyon"), ("toulouse", "nancy")):
        network.partition(*pair)
    held = snapshot_network(network, extra={"overlay": overlay})
    return [hashlib.sha256(blob).hexdigest() for blob in (plain, held)]


def _digests_under(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, __file__], env=env, check=True, timeout=120,
        capture_output=True, text=True,
    )
    return done.stdout.split()


def test_blob_digest_is_the_same_under_two_hash_seeds():
    zero, one = _digests_under("0"), _digests_under("1")
    assert len(zero) == 2 and zero[0] != zero[1]
    assert zero == one


class _HashOrderFinder(pickle._Pickler):
    """The pure-Python pickler, noting every multi-element ``set`` /
    ``frozenset`` it is asked to save."""

    def __init__(self):
        super().__init__(io.BytesIO(), protocol=5)
        self.found = []

    def save(self, obj, save_persistent_id=True):
        if isinstance(obj, (set, frozenset)) and len(obj) > 1:
            self.found.append(repr(obj)[:120])
        super().save(obj, save_persistent_id)


def test_no_multi_element_hash_set_is_reachable_from_a_snapshot():
    network, overlay = build()
    network.partition("sophia", "rennes")
    network.partition("lyon", "orsay")
    # the regime first: the containers that used to be sets are filled
    rdv = max(overlay.rendezvous, key=lambda r: len(r.discovery.srdi))
    assert max(map(len, rdv.discovery.srdi._by_publisher.values())) > 1
    assert any(
        type(b) is dict and len(b) > 1
        for b in overlay.edges[0].cache._by_attr.values()
    )
    assert len(overlay.edges[0].discovery.pusher._pushed) > 200
    finder = _HashOrderFinder()
    finder.dump((network, overlay))
    assert finder.found == []


def test_the_same_run_snapshots_to_the_same_bytes_twice_in_one_process():
    def blob():
        sim = Simulator(seed=1)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(rendezvous_count=8, topology="chain", edge_count=4),
        )
        overlay.start()
        sim.run(until=95.0)  # messages in flight: envelopes in the blob
        return snapshot_network(network, extra={"overlay": overlay})

    first, second = blob(), blob()
    assert len(first) == len(second)
    assert hashlib.sha256(first).digest() == hashlib.sha256(second).digest()


if __name__ == "__main__":
    print(*blob_digests())
