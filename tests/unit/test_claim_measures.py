"""The fig3-left claim measures read their size off the results.

A ``full``-shaped result (two-hour runs, trees only at r = 160, 220
and 338) is built by hand, so nothing runs."""

import math

import pytest

from repro.analysis.claims import CLAIMS, Claim, evaluate
from repro.experiments.fig3_left import Fig3LeftSeries
from repro.metrics.series import StepSeries
from repro.sim import MINUTES

TWO_HOURS = 120 * MINUTES


def _series(r, topology, early, late):
    """l = ``early`` for the first hour, ``late`` for the second."""
    return Fig3LeftSeries(
        r=r, topology=topology, duration=TWO_HOURS,
        series=StepSeries([0.0, 60 * MINUTES], [early, late]),
        final_sizes=[int(late)] * r,
    )


FULL_SHAPED = [
    _series(r, "chain", r - 1, r - 3) for r in (10, 45, 50, 80)
] + [
    _series(160, "chain", 150.0, 100.0),
    _series(580, "chain", 400.0, 300.0),
    _series(160, "tree", 150.0, 95.0),
    _series(220, "tree", 200.0, 150.0),
    _series(338, "tree", 300.0, 200.0),
]


def _claim(claim_id):
    (claim,) = [c for c in CLAIMS if c.id == claim_id]
    return claim


def test_plateau_is_taken_over_the_runs_own_last_quarter():
    # the last half hour of a two-hour run lies in its second hour
    value, holds = evaluate(_claim("fig3l.r80-plateau-below-max"), FULL_SHAPED)
    assert value == pytest.approx(77.0)
    assert holds


def test_chain_vs_tree_compares_the_largest_r_run_both_ways():
    value, holds = evaluate(_claim("fig3l.chain-vs-tree"), FULL_SHAPED)
    assert value == pytest.approx(5.0 / 100.0)
    assert holds


def test_a_measure_that_cannot_be_taken_reads_nan():
    # no r is run as both a chain and a tree: max() of nothing
    chains = [s for s in FULL_SHAPED if s.topology == "chain"]
    value, holds = evaluate(_claim("fig3l.chain-vs-tree"), chains)
    assert math.isnan(value) and not holds
    for measure in (lambda _: 1 / 0, lambda _: {}["r"], lambda _: None + 1):
        value, holds = evaluate(Claim("x.raises", "", "table1", measure, "<= 0"), [])
        assert math.isnan(value) and not holds
