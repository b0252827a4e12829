"""Shared experiment machinery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.deploy.builder import DeployedOverlay
from repro.network import Network
from repro.obs.tracer import PeerViewRecorder, TimelineTracer
from repro.sim import MINUTES, Simulator


@dataclass
class PeerviewRun:
    """Everything a peerview experiment produces."""

    r: int
    topology: str
    duration: float
    pve_expiration: float
    #: rdv-0's peerview adds/removes, recorded under the actor "rdv-0"
    log: TimelineTracer
    overlay: DeployedOverlay
    sim: Simulator

    def summary(self) -> Dict[str, Any]:
        """The end-of-run figures the ablation sweep and the
        ``peerview`` campaign task report: smallest and mean ``l``,
        Property (2), and peerview traffic per rendezvous in bit/s."""
        group = self.overlay.group
        sizes = group.peerview_sizes()
        return {
            "min_l": min(sizes),
            "mean_l": sum(sizes) / len(sizes),
            "property_2": bool(group.property_2_satisfied()),
            "bandwidth_bps_per_rdv": (
                group.network.stats.bytes_sent * 8.0 / self.duration / self.r
            ),
        }


def run_peerview_overlay(
    r: int,
    topology: str = "chain",
    duration: float = 60 * MINUTES,
    seed: int = 1,
    config: Optional[PlatformConfig] = None,
) -> PeerviewRun:
    """Deploy ``r`` rendezvous peers, log rdv-0's peerview events, run
    for ``duration`` simulated seconds.

    This is the §4.1 benchmark: "Each time a rdv peer is added
    to/removed from the local peerview of a rendezvous peer, the
    elapsed time since the beginning of the test is logged, as well as
    the type of event."
    """
    sim = Simulator(seed=seed)
    network = Network(sim)
    cfg = config if config is not None else PlatformConfig()
    overlay = build_overlay(
        sim, network, cfg,
        OverlayDescription(rendezvous_count=r, topology=topology),
    )
    log = TimelineTracer()
    observer = overlay.rendezvous[0]
    observer.view.add_listener(PeerViewRecorder(log, observer.name))
    overlay.start()
    sim.run(until=duration)
    return PeerviewRun(
        r=r,
        topology=topology,
        duration=duration,
        pve_expiration=cfg.pve_expiration,
        log=log,
        overlay=overlay,
        sim=sim,
    )


@dataclass
class DiscoverySample:
    """One measured discovery query."""

    latency: float
    found: bool


#: Seconds a :func:`run_query_sequence` query waits before it counts as
#: failed.
QUERY_TIMEOUT = 30.0


def run_query_sequence(
    sim: Simulator,
    searcher,
    adv_type: str,
    attribute: str,
    value: str,
    count: int,
) -> List[DiscoverySample]:
    """Issue ``count`` *consecutive* queries from ``searcher``, flushing
    its local cache between queries "in order to avoid cache speedup"
    (§4.2).  Each query starts when the previous one finishes, or times
    out after ``QUERY_TIMEOUT`` seconds."""
    samples: List[DiscoverySample] = []

    def issue() -> None:
        searcher.cache.flush()

        def on_result(advs, latency):
            samples.append(DiscoverySample(latency=latency, found=True))
            if len(samples) < count:
                issue()

        def on_timeout():
            samples.append(DiscoverySample(latency=QUERY_TIMEOUT, found=False))
            if len(samples) < count:
                issue()

        searcher.discovery.get_remote_advertisements(
            adv_type, attribute, value,
            callback=on_result,
            on_timeout=on_timeout,
            timeout=QUERY_TIMEOUT,
        )

    issue()
    # generous horizon: every query resolves or times out within
    # QUERY_TIMEOUT, sequentially
    sim.run(until=sim.now + count * (QUERY_TIMEOUT + 1.0))
    return samples


def mean_latency_ms(samples: Sequence[DiscoverySample]) -> float:
    """Mean latency over successful queries, in milliseconds."""
    ok = [s.latency for s in samples if s.found]
    if not ok:
        raise RuntimeError("no query succeeded")
    return 1000.0 * sum(ok) / len(ok)


def success_rate(samples: Sequence[DiscoverySample]) -> float:
    if not samples:
        raise RuntimeError("no samples")
    return sum(1 for s in samples if s.found) / len(samples)
