"""Property-based tests: workload subsystem invariants.

The guarantees the load experiment and its record/replay oracle rest
on, pinned over randomized inputs:

* arrival schedules are a pure function of (stream seed, parameters) —
  seed determinism;
* scaling an arrival process's rate up never *loses* arrivals for a
  fixed stream — the time-change construction's monotonicity, which
  makes "offered load" a well-ordered campaign axis;
* SLO snapshot merging is commutative and associative — cross-seed
  and cross-shard aggregation cannot depend on worker scheduling;
* histogram quantile estimates bracket the true order statistic.
"""

import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.histogram import Histogram
from repro.workload import SloTracker, make_arrivals

seeds = st.integers(min_value=0, max_value=2**32 - 1)

rates = st.floats(min_value=0.1, max_value=20.0, allow_nan=False)


@given(rates, seeds)
@settings(max_examples=60, deadline=None)
def test_arrivals_are_seed_deterministic(rate, seed):
    spec = {"kind": "poisson", "rate": rate}
    proc = make_arrivals(spec)
    a = list(proc.iter_times(random.Random(seed), 5.0, 45.0))
    b = list(make_arrivals(spec).iter_times(random.Random(seed), 5.0, 45.0))
    assert a == b
    assert all(t2 >= t1 for t1, t2 in zip(a, a[1:]))
    assert all(5.0 < t <= 45.0 for t in a)


@given(
    rates,
    seeds,
    st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_rate_scaling_is_monotone(rate, seed, factor):
    """For a fixed stream, scaling the rate up never reduces the
    arrival count in the window (time-change construction)."""
    base = make_arrivals({"kind": "poisson", "rate": rate})
    scaled = make_arrivals({"kind": "poisson", "rate": rate * factor})
    n_base = sum(1 for _ in base.iter_times(random.Random(seed), 0.0, 30.0))
    n_scaled = sum(1 for _ in scaled.iter_times(random.Random(seed), 0.0, 30.0))
    assert n_scaled >= n_base


# ------------------------------------------------------------------- SLO
ops = st.sampled_from(["query", "publish", "lookup"])
events = st.lists(
    st.tuples(
        st.sampled_from(["ok", "timeout", "failure", "retry"]),
        ops,
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    ),
    max_size=60,
)


def _tracker(recordings):
    slo = SloTracker()
    for outcome, op, latency in recordings:
        if outcome == "ok":
            slo.record_success("w", op, latency)
        elif outcome == "timeout":
            slo.record_timeout("w", op)
        elif outcome == "failure":
            slo.record_failure("w", op)
        else:
            slo.record_retry("w", op)
    return slo


def _snap(slo):
    return json.dumps(slo.snapshot(), sort_keys=True)


def _approx_snap_equal(a, b):
    """Snapshot equality: exact for everything except float sums, which
    may differ in the last ULP when merge order regroups additions
    (IEEE addition is commutative but not associative)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _approx_snap_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _approx_snap_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b


@given(events, events)
@settings(max_examples=60, deadline=None)
def test_slo_merge_commutative(ev_a, ev_b):
    ab = _tracker(ev_a)
    ab.merge(_tracker(ev_b))
    ba = _tracker(ev_b)
    ba.merge(_tracker(ev_a))
    assert _snap(ab) == _snap(ba)


@given(events, events, events)
@settings(max_examples=60, deadline=None)
def test_slo_merge_associative(ev_a, ev_b, ev_c):
    """(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c): counts/quantiles exactly, float sums
    up to regrouped-addition roundoff."""
    left = _tracker(ev_a)
    left.merge(_tracker(ev_b))
    left.merge(_tracker(ev_c))

    bc = _tracker(ev_b)
    bc.merge(_tracker(ev_c))
    right = _tracker(ev_a)
    right.merge(bc)
    assert _approx_snap_equal(left.snapshot(), right.snapshot())

    # merged() folds left-to-right, so it matches `left` byte-exactly
    assert _snap(SloTracker.merged(
        [_tracker(ev_a), _tracker(ev_b), _tracker(ev_c)]
    )) == _snap(left)


@given(events)
@settings(max_examples=60, deadline=None)
def test_slo_merge_identity(ev):
    slo = _tracker(ev)
    before = _snap(slo)
    slo.merge(SloTracker())
    assert _snap(slo) == before


# -------------------------------------------------- quantile bracketing
latency_samples = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=100,
)
quantiles = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(latency_samples, quantiles)
@settings(max_examples=100, deadline=None)
def test_quantile_estimate_brackets_true_order_statistic(data, q):
    """p50/p95/p99 (conservative upper bounds) and the full bracket
    must contain the exact q-th order statistic of the raw samples."""
    h = Histogram(edges=(0.5, 2.0, 8.0, 32.0))
    for v in data:
        h.observe(v)
    rank = max(1, math.ceil(q * len(data)))
    true_value = sorted(data)[rank - 1]
    lo, hi = h.quantile_bounds(q)
    assert lo <= true_value <= hi
    assert h.quantile(q) >= true_value


@given(latency_samples)
@settings(max_examples=60, deadline=None)
def test_pxx_accessors_match_quantile(data):
    h = Histogram(edges=(0.5, 2.0, 8.0, 32.0))
    for v in data:
        h.observe(v)
    assert h.p50 == h.quantile(0.50)
    assert h.p95 == h.quantile(0.95)
    assert h.p99 == h.quantile(0.99)
    assert h.p50 <= h.p95 <= h.p99
