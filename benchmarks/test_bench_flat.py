"""Bench: host cost of one flat LC-DHT lookup (r = 50, complete views).

The flat regime is the paper's ≈ 12 ms lookup while peerviews are
consistent (fig4-left): every query crosses Figure 2's four messages —
edge → rendezvous → replica → publisher, and the response straight back
to the searcher — with no walk step.  The messages are protocol, pinned
by the ``sim_digest`` of the end-to-end benchmark's ``discovery-flat``
workload (``bench/README.md``), so the host cost per lookup is the only
lever an optimisation of this path has; this puts it on the recorded
trajectory as ``us_per_flat_lookup``, beside ``test_bench_walk.py``'s
``us_per_walk_hop``.

The regime is ``discovery-flat``'s (``repro.workload.regimes.FLAT``,
which ``scripts/frames_per_op.py`` counts too): tuned expiry, so every
view holds all 49 other rendezvous from minute ~7; the catalog is
indexed at minute 20 on those complete views, so every replica sits
where a query computes it.  Build and warm-up stay outside the timer; each round
advances the same timeline by a further 5 simulated seconds of client
traffic (40 queriers at 5 queries/s).
"""

from time import perf_counter

from repro.workload.regimes import FLAT, walk_steps

ROUNDS = 4
ROUND_SIM_SECONDS = 5.0


def test_flat_lookup_cost(benchmark):
    sim, overlay, engine = FLAT.build(ROUNDS * ROUND_SIM_SECONDS)
    spec = engine.spec

    def lookups():
        stats = engine.slo._stats.get(("flat", "query"))
        return stats.ok if stats is not None else 0

    deadline = [spec.warmup]
    per_lookup = []

    def advance():
        deadline[0] += ROUND_SIM_SECONDS
        done = lookups()
        t0 = perf_counter()
        sim.run(until=deadline[0])
        elapsed = perf_counter() - t0
        per_lookup.append(elapsed / (lookups() - done))

    benchmark.pedantic(advance, rounds=ROUNDS, iterations=1)
    benchmark.extra_info["us_per_flat_lookup"] = round(1e6 * min(per_lookup), 3)

    sim.run(until=spec.horizon + spec.timeout + 1.0)  # drain, untimed
    query = engine.slo.snapshot()["flat.query"]
    assert query["requests"] > 3000  # ~40 queriers x 5/s x 20 s
    assert query["timeout"] == 0 and query["failure"] == 0
    # the four-message path: no query walked
    assert walk_steps(overlay) == 0
