"""Bench: host cost of one LC-DHT walk hop (r = 60, misplaced replicas).

Kong et al. cost a DHT lookup as hops × per-hop cost.  The hops are
protocol — pinned by ``tests/integration/test_walk_digest.py`` and by
the ``sim_digest`` of the end-to-end benchmark's ``discovery-walk``
workload (``bench/README.md``) — so the host cost of a hop is the only
lever an optimisation of the query path has, and this puts it on the
recorded trajectory as ``us_per_walk_hop``.

The regime is ``discovery-walk``'s at CI size: the catalog is indexed at
minute 2 on immature peerviews and queried from minute 20 on complete
ones, so the computed replica misses and every query walks the peerview
in both directions (≈15 hops per query at r = 60, no timeouts).  Build
and warm-up stay outside the timer; each round advances the same
timeline by a further 5 simulated seconds of client traffic.
"""

from time import perf_counter

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import HOURS, MINUTES, Simulator
from repro.workload import WorkloadEngine, WorkloadSpec

WALK_RDV_COUNT = 60
ROUNDS = 4
ROUND_SIM_SECONDS = 5.0


def test_walk_hop_cost(benchmark):
    spec = WorkloadSpec(
        name="walk",
        warmup=20 * MINUTES,
        duration=ROUNDS * ROUND_SIM_SECONDS,
        catalog={"popularity": "zipf", "size": 300, "skew": 1.0},
        arrivals={"kind": "poisson", "rate": 5.0},
        queriers=10,
        publishers=1,
        seed_time=2 * MINUTES,
    )
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network,
        PlatformConfig().with_overrides(pve_expiration=6 * HOURS),
        OverlayDescription(
            rendezvous_count=WALK_RDV_COUNT, topology="chain",
            edge_count=spec.client_count,
        ),
    )
    overlay.start()
    engine = WorkloadEngine(spec, sim, overlay.edges)
    engine.start()
    sim.run(until=spec.warmup)
    assert all(r.view.size == WALK_RDV_COUNT - 1 for r in overlay.rendezvous)

    def walk_steps():
        return sum(r.discovery.walk_steps for r in overlay.rendezvous)

    deadline = [spec.warmup]
    per_hop = []

    def advance():
        deadline[0] += ROUND_SIM_SECONDS
        hops = walk_steps()
        t0 = perf_counter()
        sim.run(until=deadline[0])
        elapsed = perf_counter() - t0
        per_hop.append(elapsed / (walk_steps() - hops))

    benchmark.pedantic(advance, rounds=ROUNDS, iterations=1)
    benchmark.extra_info["us_per_walk_hop"] = round(1e6 * min(per_hop), 3)

    sim.run(until=spec.horizon + spec.timeout + 1.0)  # drain, untimed
    query = engine.slo.snapshot()["walk.query"]
    assert query["requests"] > 800  # ~10 queriers x 5/s x 20 s
    assert query["timeout"] == 0 and query["failure"] == 0
    # the walk regime, not the 4-message flat path (0 steps)
    assert walk_steps() / query["requests"] >= 10.0
