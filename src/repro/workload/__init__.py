"""Deterministic traffic generation and SLO tracking.

The paper's discovery-time results hinge on traffic shape: flat ≈12 ms
while peerviews are consistent, linear in r once the walk kicks in,
and worst-case overhead from 50 "noiser" edges publishing 5 000 fake
advertisements.  This subpackage turns those hard-coded loops into a
first-class, seeded workload layer:

* :mod:`repro.workload.arrivals` — Poisson arrivals driven off named
  :class:`~repro.sim.rng.RngRegistry` streams, so schedules are
  byte-reproducible per seed;
* :mod:`repro.workload.catalog` — advertisement catalogs with
  Zipf/uniform popularity (generalising the fake-adv noisers);
* :mod:`repro.workload.clients` — open-loop publishers and queriers;
* :mod:`repro.workload.slo` — per-(workload, operation) latency
  histograms (p50/p95/p99), timeout and failure rates;
* :mod:`repro.workload.trace` — a canonical JSONL workload-trace
  format with record + replay, so a captured run re-drives as a
  regression oracle;
* :mod:`repro.workload.spec` — :class:`WorkloadSpec`, the declarative
  bundle consumed by ``jxta-repro load`` and the ``load`` campaign.

See docs/WORKLOADS.md for the catalogue and the replay contract.
"""

from repro.workload.arrivals import PoissonArrivals, make_arrivals
from repro.workload.catalog import Catalog, noiser_catalog, publish_catalog
from repro.workload.clients import OpenLoopPublisher, OpenLoopQuerier
from repro.workload.slo import SloTracker
from repro.workload.spec import WorkloadEngine, WorkloadSpec
from repro.workload.trace import (
    TraceOp,
    WorkloadTraceRecorder,
    load_trace_lines,
    replay_ops,
)

__all__ = [
    "Catalog",
    "OpenLoopPublisher",
    "OpenLoopQuerier",
    "PoissonArrivals",
    "SloTracker",
    "TraceOp",
    "WorkloadEngine",
    "WorkloadSpec",
    "WorkloadTraceRecorder",
    "load_trace_lines",
    "make_arrivals",
    "noiser_catalog",
    "publish_catalog",
    "replay_ops",
]
