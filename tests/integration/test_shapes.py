"""Integration: quantitative shape analysis on live protocol runs."""

from repro.analysis import detect_phases, linear_fit, relative_spread
from repro.experiments.common import run_peerview_overlay
from repro.metrics.series import peerview_size_series
from repro.sim import MINUTES


class TestPeerviewPhases:
    def test_three_phases_detected_at_moderate_scale(self):
        run = run_peerview_overlay(r=48, duration=60 * MINUTES, seed=5)
        series = peerview_size_series(run.log, "rdv-0")
        phases = detect_phases(series, duration=60 * MINUTES)
        assert phases is not None
        # growth completes around PVE_EXPIRATION (20 min), paper §4.1
        assert phases.growth_end <= 30 * MINUTES
        assert phases.peak >= 45
        # the plateau sits below the maximum (Property (2) violated)
        assert phases.plateau_mean < 47.5
        assert phases.plateau_mean > 35
        # fluctuation phase occupies the tail of the run
        assert phases.fluctuation_start < 56 * MINUTES

    def test_peers_evolve_homogeneously(self):
        # "For a same experiment, the value l of each rendezvous peer
        # belonging to S evolves in the same way" (§4.1)
        run = run_peerview_overlay(r=40, duration=40 * MINUTES, seed=5)
        finals = run.overlay.group.peerview_sizes()
        assert relative_spread(finals) < 0.25


class TestPeerviewGrowthShape:
    def test_growth_phase_is_monotone_increasing(self):
        run = run_peerview_overlay(r=40, duration=15 * MINUTES, seed=6)
        series = peerview_size_series(run.log, "rdv-0")
        xs = [60.0 * m for m in range(1, 15)]
        ys = series.sampled(xs)
        fit = linear_fit(xs, ys)
        assert fit.slope > 0
        # growth dominates noise in phase 1
        assert fit.r_squared > 0.5
