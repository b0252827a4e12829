"""Bench: what one published advertisement retains (r = 12 publish regime).

The publications and SRDI messages of a publish-heavy run are protocol
— pinned by ``tests/integration/test_publish_digest.py`` and by the
``sim_digest`` of the end-to-end benchmark's ``publish-heavy`` workload
(``bench/README.md``) — so what a published advertisement *keeps alive
on the host* (cache entry and index buckets at the publisher, SRDI
records at its rendezvous and at the replica, the document itself) is
the lever a change to that path has.  This puts it on the recorded
trajectory as ``bytes_per_publish``: tracemalloc growth over the tail of
the window divided by the publishes made in it.

The regime is ``publish-heavy``'s at CI size, the same as the tier-1
digest: 12 rendezvous, default configuration, 6 publishers cycling a
600-item uniform catalog at 10/s beside 2 queriers.  Build and warm-up
stay outside the timer; the timed rounds advance the first 40 simulated
seconds of client traffic, the last 20 (plus one SRDI push interval, so
every publication reaches its index holders) run untimed under
tracemalloc.

``test_srdi_idle_push_tick`` times what the publish path costs an edge
when nothing is published: its SRDI pusher's tick.
"""

import gc
import tracemalloc

from repro.advertisement import AdvertisementCache
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.discovery.srdi import SrdiPusher
from repro.network import Network
from repro.sim import MINUTES, Simulator
from repro.workload import WorkloadEngine, WorkloadSpec
from repro.workload.catalog import Catalog

PUBLISH_RDV_COUNT = 12
ROUNDS = 4
ROUND_SIM_SECONDS = 10.0


def test_publish_retained_bytes(benchmark):
    spec = WorkloadSpec(
        name="publish",
        warmup=6 * MINUTES,
        duration=60.0,
        catalog={"popularity": "uniform", "size": 600},
        arrivals={"kind": "poisson", "rate": 10.0},
        queriers=2,
        publishers=6,
    )
    config = PlatformConfig()
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, config,
        OverlayDescription(
            rendezvous_count=PUBLISH_RDV_COUNT, topology="chain",
            edge_count=spec.client_count,
        ),
    )
    overlay.start()
    engine = WorkloadEngine(spec, sim, overlay.edges)
    engine.start()
    sim.run(until=spec.warmup)

    deadline = [spec.warmup]

    def advance():
        deadline[0] += ROUND_SIM_SECONDS
        sim.run(until=deadline[0])

    benchmark.pedantic(advance, rounds=ROUNDS, iterations=1)

    def publishes():
        return sum(e.discovery.publishes for e in overlay.edges)

    # `make profile` already traces; otherwise trace just this tail
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        made = publishes()
        sim.run(until=spec.horizon + config.srdi_push_interval + 1.0)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - held
        made = publishes() - made
    finally:
        if not tracing:
            tracemalloc.stop()
    benchmark.extra_info["bytes_per_publish"] = round(grown / made, 1)

    slo = engine.slo.snapshot()
    assert made > 800  # ~6 publishers x 10/s x 20 s
    assert slo["publish.publish"]["requests"] > 3000
    query = slo["publish.query"]
    assert query["requests"] > 800
    assert query["timeout"] == 0 and query["failure"] == 0
    assert sum(r.discovery.srdi.inserts for r in overlay.rendezvous) > 5000


IDLE_CATALOG = 20_000
IDLE_TICKS = 100
IDLE_ROUNDS = 20


def test_srdi_idle_push_tick(benchmark):
    """An edge whose cache holds 20 000 local advertisements (the size of
    ``publish-heavy``'s catalog), pushed once, then ticking with nothing
    published: §3.3 pushes "only [...] if advertisements have changed",
    so an idle tick is the cost of finding out that nothing did, once
    per edge every 30 simulated seconds.  Timed: 100 idle ticks."""
    catalog = Catalog.uniform(IDLE_CATALOG)
    cache = AdvertisementCache()
    for k in range(IDLE_CATALOG):
        cache.publish(catalog.adv(k), now=0.0, lifetime=3600.0)
    sent = []
    pusher = SrdiPusher(Simulator(seed=1), cache, PlatformConfig(), sent.append)
    pusher.push_now()  # the one push that carries the catalog
    assert len(sent[0].entries) == IDLE_CATALOG

    def idle_ticks():
        for _ in range(IDLE_TICKS):
            pusher.push_now()

    benchmark.pedantic(idle_ticks, rounds=IDLE_ROUNDS, iterations=1)
    assert len(sent) == 1
