"""Integration: the LC-DHT walk regime is pinned by a digest.

The benchmark's ``discovery-walk`` workload (``bench/README.md``) is
where a host-only optimisation of the query path is measured, under the
rule that no simulated event, message, byte, RNG draw or float delay
moves.  This is that regime at tier-1 size: replicas are misplaced (the
catalog is indexed at minute 2, on immature peerviews, and queried from
minute 12 on complete ones), so the computed replica misses and the
query walks the peerview in both directions.

The digest below was generated at the commit *before* the query-path
fast lane (PR 13) and must still be reproduced.  A hop edit that moves
the simulation fails here in seconds, not in the benchmark.
"""

import functools
import hashlib
import json

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator
from repro.workload import WorkloadEngine, WorkloadSpec

R = 30
WALK_DIGEST = (
    "b2991810bc430c5f3abe068361464615d87a280895de6202cd360efa0843886a"
)
#: the flat LC-DHT path takes 0 walk steps; the benchmark's ``--quick``
#: walk at this size measures 7.3
MIN_WALK_STEPS_PER_QUERY = 5.0


def _run_walk():
    spec = WorkloadSpec(
        name="walk",
        warmup=12 * MINUTES,
        duration=8.0,
        catalog={"popularity": "zipf", "size": 120, "skew": 1.0},
        arrivals={"kind": "poisson", "rate": 2.0},
        queriers=6,
        publishers=1,
        seed_time=2 * MINUTES,
    )
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network,
        PlatformConfig().with_overrides(pve_expiration=6 * HOURS),
        OverlayDescription(
            rendezvous_count=R, topology="chain",
            edge_count=spec.client_count,
        ),
    )
    overlay.start()
    engine = WorkloadEngine(spec, sim, overlay.edges)
    engine.start()
    sim.run(until=spec.horizon + spec.timeout + 1.0)

    slo = engine.slo.snapshot()
    walk_steps = [r.discovery.walk_steps for r in overlay.rendezvous]
    digest = hashlib.sha256(json.dumps({
        "events_fired": sim.events_fired,
        "stats": network.stats.snapshot(),
        "slo": slo,
        "walk_steps": walk_steps,
        "views": [r.view.size for r in overlay.rendezvous],
    }, sort_keys=True, default=str).encode()).hexdigest()
    return digest, sum(walk_steps), slo["walk.query"]


# The ids name the two send paths and the two schedulers the digest was
# pinned under while object pools and the timer wheel existed.  There is one
# path and one event heap now, so the four ids read one run.
_run_once = functools.cache(_run_walk)


@pytest.mark.parametrize("path", ["pooled", "unpooled"])
@pytest.mark.parametrize("repeat", ["wheel", "heap"])
def test_walk_digest_is_pinned(repeat, path):
    digest, walk_steps, queries = _run_once()
    # the regime first: a digest of the flat path would pin nothing
    assert queries["requests"] > 50
    assert queries["timeout"] == 0 and queries["failure"] == 0
    assert walk_steps / queries["requests"] >= MIN_WALK_STEPS_PER_QUERY
    assert digest == WALK_DIGEST
