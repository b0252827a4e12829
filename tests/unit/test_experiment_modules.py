"""Unit tests for experiment-module logic (small runs + pure helpers)."""

import pytest

from repro.experiments import (
    fig3_left,
    fig3_right,
    fig4_left,
    fig4_right,
    table1,
)
from repro.metrics.series import StepSeries
from repro.sim import MINUTES


class TestFig3LeftSeries:
    def _series(self, times, values, r=10, topology="chain", duration=120.0):
        return fig3_left.Fig3LeftSeries(
            r=r, topology=topology, duration=duration,
            series=StepSeries(times, values),
            final_sizes=[int(values[-1])] * r,
        )

    def test_reached_max(self):
        s = self._series([0.0, 60.0], [0.0, 9.0])
        assert s.reached_max
        s2 = self._series([0.0, 60.0], [0.0, 8.0])
        assert not s2.reached_max

    def test_peak_and_time(self):
        s = self._series([0.0, 60.0, 120.0], [0.0, 9.0, 5.0])
        assert s.peak == 9.0
        assert s.peak_time_minutes == pytest.approx(1.0)

    def test_plateau_uses_last_quarter(self):
        s = self._series([0.0, 30.0, 90.0], [0.0, 9.0, 4.0])
        assert s.plateau() == pytest.approx(4.0)

    def test_label(self):
        assert self._series([0.0], [0.0], r=45).label == "45-chain"

    def test_small_run_end_to_end(self):
        results = fig3_left.run(
            configs=((6, "chain"),), duration=8 * MINUTES, seed=2
        )
        assert len(results) == 1
        assert results[0].reached_max
        text = fig3_left.render(results)
        assert "6-chain" in text
        assert "Summary" in text


class TestFig3Right:
    def test_numbering_assigns_in_first_seen_order(self):
        result = fig3_right.run(r=6, duration=10 * MINUTES, seed=2)
        numbers = [n for _, n in result.add_points]
        # first occurrence of each number is in increasing order
        seen = []
        for n in numbers:
            if n not in seen:
                seen.append(n)
        assert seen == sorted(seen)
        assert result.distinct_discovered <= result.max_possible

    def test_no_removals_in_short_run(self):
        result = fig3_right.run(r=6, duration=10 * MINUTES, seed=2)
        # PVE_EXPIRATION is 20 min: nothing can expire in 10
        assert result.remove_points == []
        assert result.first_remove_time == float("inf")

    def test_render_contains_phases(self):
        result = fig3_right.run(r=6, duration=10 * MINUTES, seed=2)
        text = fig3_right.render(result)
        assert "add events" in text
        assert "PVE_EXPIRATION" in text


class TestFig4LeftResult:
    def _result(self, tuned_values):
        times = [float(i * 60) for i in range(len(tuned_values))]
        return fig4_left.Fig4LeftResult(
            r=50,
            duration=times[-1],
            default_series=StepSeries([0.0, 600.0, 1800.0], [0.0, 49.0, 40.0]),
            tuned_series=StepSeries(times, tuned_values),
            tuned_expiration=5400.0,
        )

    def test_t1_first_time_at_max(self):
        result = self._result([0.0, 20.0, 49.0, 49.0])
        assert result.t1_minutes() == pytest.approx(2.0)

    def test_t1_none_when_never_reached(self):
        result = self._result([0.0, 20.0, 30.0, 40.0])
        assert result.t1_minutes() is None
        assert not result.tuned_holds_max()

    def test_default_decays(self):
        result = self._result([0.0, 49.0, 49.0, 49.0])
        assert result.default_decays()


class TestFig4RightPayloadDefaults:
    def test_paper_workload_constants(self):
        # §4.2: 50 noisers, f = 100 fakes each, on 5 rendezvous
        assert fig4_right.NOISER_COUNT == 50
        assert fig4_right.FAKES_PER_NOISER == 100
        assert fig4_right.NOISER_RDV_SPREAD == 5
        assert fig4_right.NOISER_COUNT * fig4_right.FAKES_PER_NOISER == 5000

    def test_render_lists_all_r(self):
        points = [
            fig4_right.Fig4RightPoint(
                r=r, configuration=c, mean_ms=10.0, success=1.0,
                samples=[], total_walk_steps=0,
            )
            for r in (4, 8)
            for c in ("A", "B")
        ]
        text = fig4_right.render(points)
        assert "4" in text and "8" in text


class TestTable1Constants:
    def test_paper_ids(self):
        assert table1.PAPER_RDV_IDS == (6, 20, 36, 50, 88, 180)
        assert table1.EXAMPLE_HASH == 116
        assert table1.EXAMPLE_MAX_HASH == 200
