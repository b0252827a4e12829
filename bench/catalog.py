"""Names, units and bounds of every workload and metric.

This is the single place a name is spelled; ``BENCHMARK.json`` repeats
it for the driver and ``bench/tests`` checks that the two agree.

Every number is **host** (what the simulator costs on this machine) or
**sim** (what the modelled JXTA overlay does).  Sim numbers repeat
exactly for a seed; host numbers carry the box's noise, which is why
only host metrics have a regression bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Layers are the ``src/repro`` package names a span is attributed to.
LAYERS: Tuple[str, ...] = (
    "sim", "network", "endpoint", "resolver", "rendezvous", "discovery",
    "advertisement", "workload", "snapshot", "faults", "fuzz",
)

#: Length of one measured run in host seconds on the reference box;
#: workload windows are sized for it and scale linearly with --seconds.
RUN_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    kind: str  # "host" | "sim"
    #: share of the baseline median by which a host end-to-end metric
    #: may worsen; None for per-layer metrics (sim ones compare exactly)
    bound: Optional[float] = None


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "peerview-580",
        "paper fig3-left at r=580: rendezvous+network+sim+endpoint carry "
        "the wall clock, discovery idle; holds the plateau~300 fidelity check",
    ),
    Workload(
        "discovery-flat",
        "r=50 with consistent peerviews: the O(1) LC-DHT lookup path; a "
        "walker optimisation must show no change here",
    ),
    Workload(
        "discovery-walk",
        "r=150 with misplaced replicas: the O(r) bidirectional walk; a "
        "replica/SRDI fast path must show no change here",
    ),
    Workload(
        "publish-heavy",
        "writes beside reads, catalog far above the pool caps: a lookup "
        "gain that costs publishes or inflates SRDI messages shows here",
    ),
    Workload(
        "fuzz-batch",
        "what `jxta-repro fuzz --budget` waits for: the only workload "
        "where snapshot/restore, faults, replay and the heap scheduler work",
    ),
)

#: The bounds are as wide as the contract allows because the sandbox is
#: that noisy, not because a 25 % regression is acceptable: over four
#: sets of ten runs per workload the quartile distance of ``wall_s``
#: was 4-19 % of its median *after* the speed correction in
#: ``bench.workloads`` (9-17 % before), and a bound a spread can reach
#: gates nothing.  ``peak_rss_mb`` repeats to 0.5 %.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("wall_s", "s", "lower", "host", 0.25),
    Metric("ops_per_s", "1/s", "higher", "host", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.05),
)

#: What a user of the *modelled* overlay sees.  Exact per seed, so they
#: are compared for equality, not against a bound; 0 where a workload
#: has no such quantity (no queries on peerview-580, no overlay of its
#: own on fuzz-batch).
SIM_END_TO_END: Tuple[Metric, ...] = (
    Metric("workload.sim_latency_mean_ms", "ms", "lower", "sim"),
    Metric("workload.sim_latency_p99_ms", "ms", "lower", "sim"),
    Metric("workload.failed_share", "share", "lower", "sim"),
    Metric("network.sim_kbit_s_per_peer", "kbit/s", "lower", "sim"),
    Metric("rendezvous.peerview_l_mean", "count", "higher", "sim"),
    Metric("rendezvous.paper_error_pct", "%", "lower", "sim"),
)

_COUNTERS: Tuple[Metric, ...] = (
    Metric("sim.events_fired", "count", "lower", "sim"),
    Metric("sim.us_per_event", "us", "lower", "host"),
    Metric("sim.alloc_blocks_per_event", "blocks", "lower", "host"),
    Metric("network.sends", "count", "lower", "sim"),
    Metric("network.bytes_sent", "bytes", "lower", "sim"),
    Metric("network.drops", "count", "lower", "sim"),
    Metric("network.inter_site_share", "share", "lower", "sim"),
    Metric("rendezvous.probes_sent", "count", "lower", "sim"),
    Metric("rendezvous.view_adds", "count", "lower", "sim"),
    Metric("rendezvous.view_removes", "count", "lower", "sim"),
    Metric("rendezvous.lease_renewals", "count", "lower", "sim"),
    Metric("resolver.queries_sent", "count", "lower", "sim"),
    Metric("resolver.queries_forwarded", "count", "lower", "sim"),
    Metric("resolver.responses_sent", "count", "lower", "sim"),
    Metric("resolver.srdi_sent", "count", "lower", "sim"),
    Metric("discovery.queries", "count", "higher", "sim"),
    Metric("discovery.walk_steps", "count", "lower", "sim"),
    Metric("discovery.walk_steps_per_query", "count", "lower", "sim"),
    Metric("discovery.srdi_tuples_indexed", "count", "lower", "sim"),
    Metric("workload.requests_issued", "count", "higher", "sim"),
    Metric("workload.generator_lag_sim_ms", "ms", "lower", "sim"),
    Metric("snapshot.snapshots", "count", "lower", "sim"),
    Metric("snapshot.restores", "count", "lower", "sim"),
    Metric("fuzz.oracle_checks", "count", "higher", "sim"),
    Metric("fuzz.oracle_skips", "count", "lower", "sim"),
    Metric("fuzz.coverage_keys", "count", "higher", "sim"),
    Metric("trace.overhead_pct", "%", "lower", "host"),
    Metric("trace.unattributed_share", "%", "lower", "host"),
)

#: Each layer driven alone through its public API at a fixed size.
PROBES: Tuple[Metric, ...] = (
    Metric("sim.schedule_fire_ns", "ns", "lower", "host"),
    Metric("sim.cancel_reschedule_ns", "ns", "lower", "host"),
    Metric("network.send_deliver_us", "us", "lower", "host"),
    Metric("endpoint.send_to_peer_us", "us", "lower", "host"),
    Metric("rendezvous.peerview_upsert_us", "us", "lower", "host"),
    Metric("rendezvous.peerview_expire_us", "us", "lower", "host"),
    Metric("rendezvous.ordered_ids_us", "us", "lower", "host"),
    Metric("rendezvous.referral_sample_us", "us", "lower", "host"),
    Metric("discovery.replica_rank_us", "us", "lower", "host"),
    Metric("discovery.srdi_add_us", "us", "lower", "host"),
    Metric("discovery.srdi_lookup_us", "us", "lower", "host"),
    Metric("advertisement.cache_publish_us", "us", "lower", "host"),
    Metric("advertisement.cache_search_us", "us", "lower", "host"),
    Metric("advertisement.xml_roundtrip_us", "us", "lower", "host"),
    Metric("ids.intern_ns", "ns", "lower", "host"),
    Metric("workload.arrivals_per_s", "1/s", "higher", "host"),
    Metric("workload.slo_record_ns", "ns", "lower", "host"),
    Metric("snapshot.snapshot_ms", "ms", "lower", "host"),
    Metric("snapshot.restore_ms", "ms", "lower", "host"),
    Metric("snapshot.blob_mb", "MB", "lower", "sim"),
    Metric("obs.attached_disabled_overhead_pct", "%", "lower", "host"),
    Metric("obs.metrics_on_overhead_pct", "%", "lower", "host"),
)


def _layer_metrics() -> List[Metric]:
    out: List[Metric] = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower", "host"))
        out.append(Metric(f"{layer}.self_share", "%", "lower", "host"))
        out.append(Metric(f"{layer}.calls", "count", "lower", "sim"))
    return out


PER_LAYER: Tuple[Metric, ...] = (
    tuple(_layer_metrics()) + _COUNTERS + SIM_END_TO_END + PROBES
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def workload_names() -> List[str]:
    return [w.name for w in WORKLOADS]


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
