"""Bench: host cost of one LC-DHT walk hop (r = 60, misplaced replicas).

Kong et al. cost a DHT lookup as hops × per-hop cost.  The hops are
protocol — pinned by ``tests/integration/test_walk_digest.py`` and by
the ``sim_digest`` of the end-to-end benchmark's ``discovery-walk``
workload (``bench/README.md``) — so the host cost of a hop is the only
lever an optimisation of the query path has, and this puts it on the
recorded trajectory as ``us_per_walk_hop``.

The regime is ``discovery-walk``'s at CI size
(``repro.workload.regimes.WALK``, which ``scripts/frames_per_op.py``
counts too): the catalog is indexed at
minute 2 on immature peerviews and queried from minute 20 on complete
ones, so the computed replica misses and every query walks the peerview
in both directions (≈15 hops per query at r = 60, no timeouts).  Build
and warm-up stay outside the timer; each round advances the same
timeline by a further 5 simulated seconds of client traffic.
"""

from time import perf_counter

from repro.workload.regimes import WALK, walk_steps

ROUNDS = 4
ROUND_SIM_SECONDS = 5.0


def test_walk_hop_cost(benchmark):
    sim, overlay, engine = WALK.build(ROUNDS * ROUND_SIM_SECONDS)
    spec = engine.spec

    deadline = [spec.warmup]
    per_hop = []

    def advance():
        deadline[0] += ROUND_SIM_SECONDS
        hops = walk_steps(overlay)
        t0 = perf_counter()
        sim.run(until=deadline[0])
        elapsed = perf_counter() - t0
        per_hop.append(elapsed / (walk_steps(overlay) - hops))

    benchmark.pedantic(advance, rounds=ROUNDS, iterations=1)
    benchmark.extra_info["us_per_walk_hop"] = round(1e6 * min(per_hop), 3)

    sim.run(until=spec.horizon + spec.timeout + 1.0)  # drain, untimed
    query = engine.slo.snapshot()["walk.query"]
    assert query["requests"] > 800  # ~10 queriers x 5/s x 20 s
    assert query["timeout"] == 0 and query["failure"] == 0
    # the walk regime, not the 4-message flat path (0 steps)
    assert walk_steps(overlay) / query["requests"] >= 10.0
