"""Time series and report rendering for the experiments.

The paper's figures are built from logged protocol events ("Each time
a rdv peer is added to/removed from the local peerview of a
rendezvous peer, the elapsed time since the beginning of the test is
logged, as well as the type of event", §4.1) and from discovery
latency samples.  The events are recorded by :mod:`repro.obs`'s
timeline tracer; this subpackage turns them into time series and
renders the plain-text tables/series ``repro.experiments`` prints.
"""

from repro.metrics.series import (
    StepSeries,
    convergence_ratio_series,
    elementwise_mean_std,
    peerview_size_series,
    sample_at,
)
from repro.metrics.report import render_series, render_table

__all__ = [
    "StepSeries",
    "convergence_ratio_series",
    "elementwise_mean_std",
    "peerview_size_series",
    "render_series",
    "render_table",
    "sample_at",
]
