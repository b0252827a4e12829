"""Observability must never perturb the simulation.

The instrumentation contract (docs/OBSERVABILITY.md): recording a
metric or trace event never draws from the RNG, never schedules a
kernel event and never mutates protocol state.  Consequently a run
with full tracing + metrics on must be *byte-identical* — same RNG
draws, same ``(time, seq)`` fire order, same results — to the same
run with observability off.
"""

import functools
from typing import List

import pytest

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.obs import ObsSession, TimelineTracer, enable_observability, session
from repro.obs.tracer import PeerViewRecorder
from repro.sim import MINUTES, Simulator
from repro.sim.tracing import KernelTraceRecorder

def _run(seed: int, obs: str):
    """One publish/lookup scenario; ``obs`` picks the instrumentation
    flavour: ``"off"``, ``"metrics"``, or ``"full"`` (metrics + trace,
    including the kernel fire hook)."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    recorder = KernelTraceRecorder(sim)
    if obs == "metrics":
        enable_observability(network, metrics=True)
    elif obs == "full":
        enable_observability(
            network, metrics=True, trace=True, trace_kernel=True
        )
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(
            rendezvous_count=8, edge_count=2, edge_attachment=[0, 4],
            topology="chain",
        ),
    )
    overlay.start()
    sim.run(until=12 * MINUTES)
    overlay.edges[0].discovery.publish(FakeAdvertisement("obs-det"))
    sim.run(until=sim.now + 2 * MINUTES)
    latencies: List[float] = []
    overlay.edges[1].discovery.get_remote_advertisements(
        "repro:FakeAdvertisement", "Name", "obs-det",
        callback=lambda advs, lat: latencies.append(lat),
    )
    sim.run(until=sim.now + 1 * MINUTES)
    return {
        "digest": recorder.digest(),
        "fired": sim.events_fired,
        "messages": network.stats.messages_sent,
        "bytes": network.stats.bytes_sent,
        "latencies": latencies,
        "views": [
            [p.short() for p in rdv.view.ordered_ids()]
            for rdv in overlay.rendezvous
        ],
    }


#: ``_run`` once per configuration: both ids compare with one ``"off"`` run
_run_once = functools.cache(_run)


class TestObservabilityIsInert:
    @pytest.mark.parametrize("obs", ["metrics", "full"])
    def test_enabled_run_byte_identical_to_disabled(self, obs):
        base = _run_once(23, "off")
        instrumented = _run_once(23, obs)
        assert instrumented == base

    def test_session_adoption_is_inert(self):
        """The ambient-session path (CLI --metrics-out, campaign
        workers) must be as invisible as direct attachment."""
        base = _run(31, "off")
        with session(metrics=True, trace=True):
            instrumented = _run(31, "off")
        assert instrumented == base

    def test_session_collects_while_staying_inert(self):
        with session(metrics=True) as s:
            _run(37, "off")
        snapshot = s.merged_snapshot()
        assert snapshot["counters"].get("endpoint.send", 0) > 0
        assert snapshot["histograms"]["endpoint.delay"]["count"] > 0


class TestPeerviewRecorder:
    """One peerview event schema: what :class:`PeerViewRecorder` logs
    for an experiment is what the hub's tracer records for the same
    rendezvous."""

    #: the ids name the two schedulers the kernel had until it became
    #: one event heap; both read one cached run
    @pytest.mark.parametrize("repeat", ("wheel", "heap"))
    def test_recorder_events_equal_the_hubs(self, repeat):
        mine, hub = self._recorder_and_hub_events()
        # both kinds, and the removal's reason, are compared
        assert {(name, args.get("reason")) for _, name, args in mine} == {
            ("view.add", None), ("view.remove", "expired"),
        }
        assert mine == hub

    @staticmethod
    @functools.cache
    def _recorder_and_hub_events():
        sim = Simulator(seed=3)
        network = Network(sim)
        obs = enable_observability(
            network, metrics=False, trace=True, categories=("peerview",)
        )
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(rendezvous_count=24, topology="chain"),
        )
        rdv = overlay.rendezvous[0]
        log = TimelineTracer()
        rdv.view.add_listener(PeerViewRecorder(log, rdv.name))
        overlay.start()
        sim.run(until=40 * MINUTES)
        hub = [
            (e.t, e.name, e.args) for e in obs.tracer.events
            if e.actor == rdv.address and e.name.startswith("view.")
        ]
        mine = [(e.t, e.name, e.args) for e in log.events]
        return mine, hub


class TestGoldenScenarioDeterminism:
    """The golden scenarios themselves are run-to-run stable (the
    fixture diff lives in test_golden_traces.py)."""

    def test_peerview_scenario_stable_across_runs(self):
        from repro.obs.golden import peerview_convergence_trace

        assert peerview_convergence_trace() == peerview_convergence_trace()


def test_nested_sessions_adopt_innermost():
    outer = ObsSession(metrics=True)
    inner = ObsSession(metrics=True)
    from repro.obs import activate, deactivate

    activate(outer)
    try:
        activate(inner)
        try:
            sim = Simulator(seed=1)
            net = Network(sim)
            assert net.obs is not None
            assert inner.hubs and inner.hubs[0].network is net
            assert not outer.hubs
        finally:
            deactivate(inner)
    finally:
        deactivate(outer)
