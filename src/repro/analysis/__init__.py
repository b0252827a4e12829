"""Quantitative shape analysis for experiment outputs.

The reproduction's claims are about curve *shapes* — linear growth of
the discovery time, the three phases of the peerview size and their
plateau.  This subpackage turns those visual judgements into numbers
(least-squares fits, phase boundary detection, spread across peers) so
tests and EXPERIMENTS.md can assert them.
"""

from repro.analysis.shapes import (
    LinearFit,
    PhaseBoundaries,
    detect_phases,
    linear_fit,
    relative_spread,
)

__all__ = [
    "LinearFit",
    "PhaseBoundaries",
    "detect_phases",
    "linear_fit",
    "relative_spread",
]
