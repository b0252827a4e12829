"""Integration: the publish/SRDI regime is pinned by a digest.

The benchmark's ``publish-heavy`` workload (``bench/README.md``) is
where a host-only change to what one published advertisement retains —
the cache's attribute index, the SRDI store's publisher buckets, the
catalog's documents — is measured, under the rule that no simulated
event, message, byte, result order or ``len()`` moves.  This is that
regime at tier-1 size (the workload's ``--quick`` shape): 12 rendezvous,
default configuration, 6 publishers cycling a 600-item uniform catalog
at 10/s beside 2 queriers.

Beyond the kernel/network/SLO counters the digest covers what the index
structures *answer*: per rendezvous the SRDI store's size, insert count,
its tuples in ``tuples()`` order and, for each, the records ``lookup()``
returns in order; per edge the cache's size, insert count and the names
an attribute-presence search returns in order.  Every publisher cycles
the same catalog, so most index tuples gain a second publisher on the
way: the single-member → container promotion of a bucket is exercised,
and asserted below.

The digest was generated at the commit *before* the one-object-per-fact
publish path (PR 17) and must still be reproduced.
"""

import functools
import hashlib
import json

import pytest

from repro.advertisement.testadv import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import MINUTES, Simulator
from repro.workload import WorkloadEngine, WorkloadSpec

R = 12
PUBLISH_DIGEST = (
    "91353dc33e50a78ea8ef4fa168676a52398ddf0fd9ce0cb35ca6d1acff8bf62d"
)
#: a run that indexed next to nothing would pin nothing
MIN_SRDI_INSERTS = 1000


def _run_publish():
    spec = WorkloadSpec(
        name="publish",
        warmup=6 * MINUTES,
        duration=60.0,
        catalog={"popularity": "uniform", "size": 600},
        arrivals={"kind": "poisson", "rate": 10.0},
        queriers=2,
        publishers=6,
    )
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(
            rendezvous_count=R, topology="chain",
            edge_count=spec.client_count,
        ),
    )
    overlay.start()
    engine = WorkloadEngine(spec, sim, overlay.edges)
    engine.start()
    sim.run(until=spec.horizon + spec.timeout + 1.0)

    now = sim.now
    srdi = []
    most_publishers = 0
    for rdv in overlay.rendezvous:
        index = rdv.discovery.srdi
        answers = []
        for index_tuple in index.tuples():
            records = index.lookup(index_tuple, now)
            most_publishers = max(most_publishers, len(records))
            answers.append((index_tuple, [
                (str(r.publisher), r.publisher_address, r.expires_at)
                for r in records
            ]))
        srdi.append((len(index), index.inserts, answers))
    caches = [
        (len(edge.cache), edge.cache.inserts, [
            adv.name for adv in edge.cache.search(
                FakeAdvertisement.ADV_TYPE, "Name", None, now)
        ])
        for edge in overlay.edges
    ]
    digest = hashlib.sha256(json.dumps({
        "events_fired": sim.events_fired,
        "stats": network.stats.snapshot(),
        "slo": engine.slo.snapshot(),
        "srdi": srdi,
        "caches": caches,
    }, sort_keys=True, default=str).encode()).hexdigest()
    inserts = sum(r.discovery.srdi.inserts for r in overlay.rendezvous)
    return digest, inserts, most_publishers


# The ids name the two send paths and the two schedulers the digest was
# pinned under while object pools and the timer wheel existed.  There is one
# path and one event heap now, so the four ids read one run.
_run_once = functools.cache(_run_publish)


@pytest.mark.parametrize("path", ["pooled", "unpooled"])
@pytest.mark.parametrize("repeat", ["wheel", "heap"])
def test_publish_digest_is_pinned(repeat, path):
    digest, inserts, most_publishers = _run_once()
    # the regime first: a digest over empty or single-publisher buckets
    # would leave the multi-publisher bucket form unexercised
    assert inserts >= MIN_SRDI_INSERTS
    assert most_publishers >= 2
    assert digest == PUBLISH_DIGEST
