"""Bench: medium-scale peerview regime (the r = 160 point of Figure 3).

The CI-sized fig3 bench stops at r = 80; this one runs the smallest
configuration that sits squarely in the paper's *inconsistent* regime
(r = 160: peak near PVE_EXPIRATION, plateau well below r − 1) and
doubles as the throughput benchmark for paper-scale runs.
"""

from repro.analysis import detect_phases, relative_spread
from repro.experiments.common import run_peerview_overlay
from repro.metrics.series import peerview_size_series
from repro.sim import MINUTES


def test_r160_inconsistent_regime(run_once, capsys):
    duration = 60 * MINUTES
    run = run_once(
        run_peerview_overlay, r=160, duration=duration, seed=1
    )
    series = peerview_size_series(run.log, "rdv-0")
    phases = detect_phases(series, duration)
    sizes = run.overlay.group.peerview_sizes()
    with capsys.disabled():
        print()
        print(
            f"r=160: peak={phases.peak:.0f} at "
            f"{phases.growth_end / 60:.0f} min, plateau="
            f"{phases.plateau_mean:.0f}±{phases.plateau_std:.1f}, "
            f"final sizes {min(sizes)}..{max(sizes)}"
        )

    # the inconsistent regime of Figure 3 (left):
    # substantial growth, but Property (2) never holds
    assert phases.peak >= 110
    assert phases.plateau_mean < 155
    assert not run.overlay.group.property_2_satisfied()
    # growth completes within a few PVE_EXPIRATION
    assert phases.growth_end <= 45 * MINUTES
    # peers evolve homogeneously (§4.1)
    assert relative_spread(sizes) < 0.35
