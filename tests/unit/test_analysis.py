"""Unit tests for the shape-analysis helpers."""

import pytest

from repro.analysis import (
    detect_phases,
    linear_fit,
    relative_spread,
)
from repro.metrics.series import StepSeries


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = linear_fit([0, 1], [0, 2])
        assert fit.slope * 5 + fit.intercept == pytest.approx(10.0)

    def test_noisy_line_has_high_r2(self):
        xs = list(range(20))
        ys = [2 * x + (1 if x % 2 else -1) for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.r_squared > 0.99

    def test_flat_data_r2_is_one(self):
        fit = linear_fit([0, 1, 2], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])


class TestRelativeSpread:
    def test_identical_values(self):
        assert relative_spread([5, 5, 5]) == 0.0

    def test_spread(self):
        assert relative_spread([8, 10, 12]) == pytest.approx(0.4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            relative_spread([])


class TestDetectPhases:
    def _three_phase_series(self):
        # growth to 100 at t=1200, decay to 70 by t=2400, flat after
        times, values = [0.0], [0.0]
        for i in range(1, 25):  # growth: +4 every 50s until 1200
            times.append(i * 50.0)
            values.append(min(100.0, i * 4.2))
        for i in range(1, 13):  # decay 100 -> 70
            times.append(1200.0 + i * 100.0)
            values.append(100.0 - i * 2.5)
        times.append(3000.0)
        values.append(70.0)
        return StepSeries(times, values)

    def test_phases_located(self):
        series = self._three_phase_series()
        phases = detect_phases(series, duration=4000.0)
        assert phases is not None
        assert 1000.0 <= phases.growth_end <= 1400.0
        assert phases.peak == pytest.approx(100.0, abs=1.0)
        assert phases.plateau_mean == pytest.approx(70.0, abs=2.0)
        assert phases.fluctuation_start >= phases.growth_end

    def test_flat_zero_series_returns_none(self):
        assert detect_phases(StepSeries([0.0], [0.0]), 100.0) is None

    def test_monotone_series_fluctuation_is_tail(self):
        series = StepSeries([0.0, 10.0, 20.0], [0.0, 5.0, 9.0])
        phases = detect_phases(series, duration=100.0)
        assert phases is not None
        assert phases.plateau_mean == pytest.approx(9.0, abs=0.5)
