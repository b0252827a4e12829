"""Mid-run checkpoint/restore must be invisible to the simulation.

The :mod:`repro.snapshot` determinism contract: pausing a simulation at
an event boundary, serialising it to bytes, restoring it (in principle
in another process) and continuing must produce *byte-identical*
results to the run that never stopped — same kernel fire order, same
message counts, same peerview contents, same workload SLO.
"""

import functools
import tempfile
from pathlib import Path

import pytest

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.experiments import churn_exp, fig4_right, load_exp
from repro.fuzz import SEED_CASES
from repro.fuzz import runner as fuzz_runner
from repro.network import Network
from repro.network.site import GRID5000_SITES, Node
from repro.sim import MINUTES, Simulator
from repro.sim.tracing import KernelTraceRecorder
from repro.snapshot import (
    CheckpointStore,
    SnapshotError,
    restore_network,
    snapshot_network,
)
from repro.workload import WorkloadEngine, WorkloadSpec, WorkloadTraceRecorder

#: the ids of the two schedulers the kernel had until it became one
#: event heap; the two ids share one run (the ``functools.cache``
#: helpers below)
REPEATS = ("wheel", "heap")

MID = 8 * MINUTES
END = 14 * MINUTES


def _deploy(seed: int):
    """A publish/lookup scenario paused at its bootstrap boundary."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    recorder = KernelTraceRecorder(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(
            rendezvous_count=8, edge_count=2, edge_attachment=[0, 4],
            topology="chain",
        ),
    )
    overlay.start()
    sim.run(until=MID)
    return network, overlay, recorder


def _continue(network, overlay, recorder):
    """The measurement phase, identical whichever graph runs it."""
    sim = network.sim
    overlay.edges[0].discovery.publish(FakeAdvertisement("snap-restore"))
    sim.run(until=END)
    latencies = []
    overlay.edges[1].discovery.get_remote_advertisements(
        "repro:FakeAdvertisement", "Name", "snap-restore",
        callback=lambda advs, lat: latencies.append(lat),
    )
    sim.run(until=END + 1 * MINUTES)
    return {
        "digest": recorder.digest(),
        "now": sim.now,
        "seq": sim._seq,
        "fired": sim.events_fired,
        "messages": network.stats.messages_sent,
        "bytes": network.stats.bytes_sent,
        "latencies": latencies,
        "views": [
            [p.short() for p in rdv.view.ordered_ids()]
            for rdv in overlay.rendezvous
        ],
    }


def _restored_and_baseline():
    baseline = _continue(*_deploy(seed=5))

    network, overlay, recorder = _deploy(seed=5)
    blob = snapshot_network(
        network, extra={"overlay": overlay, "recorder": recorder}
    )
    del network, overlay, recorder  # continue from the restored copy
    network2, extra = restore_network(blob)
    return _continue(network2, extra["overlay"], extra["recorder"]), baseline


@functools.cache
def _resnapshot():
    """Two snapshots of one paused graph (equal or not), and the
    continuations of its restored copy and of that copy's re-snapshot."""
    network, overlay, recorder = _deploy(seed=5)
    extra = {"overlay": overlay, "recorder": recorder}
    blob_a = snapshot_network(network, extra=extra)
    blob_b = snapshot_network(network, extra=extra)

    network2, extra2 = restore_network(blob_a)
    blob_c = snapshot_network(network2, extra=extra2)
    network3, extra3 = restore_network(blob_c)
    baseline = _continue(network2, extra2["overlay"], extra2["recorder"])
    twice = _continue(network3, extra3["overlay"], extra3["recorder"])
    return blob_a == blob_b, twice, baseline


class TestMidRunRestore:
    def test_restored_continuation_is_byte_identical(self):
        resumed, baseline = _restored_and_baseline()
        assert resumed == baseline

    @pytest.mark.parametrize("repeat", REPEATS)
    def test_snapshot_bytes_are_stable(self, repeat):
        """Snapshotting the same paused graph twice yields the same
        bytes (caches are normalised out by the pickle
        contracts), and re-snapshotting a restored copy is a semantic
        fixpoint: its blob restores to an identical continuation.

        The re-snapshot is *not* required to be byte-equal to the
        original blob — unpickling does not re-intern ``__dict__`` key
        strings, so the restored graph's string-sharing pattern (and
        hence pickle memo layout) can legitimately differ while every
        value is identical."""
        same_bytes, twice, baseline = _resnapshot()
        assert same_bytes
        assert twice == baseline

    def test_snapshot_refuses_mid_event(self):
        network, overlay, recorder = _deploy(seed=5)
        network.sim._running = True
        try:
            with pytest.raises(SnapshotError):
                snapshot_network(network)
        finally:
            network.sim._running = False


HTTP_MID = 120.0
HTTP_END = 900.0


def _http_deploy():
    """An overlay whose first edge is on HTTP (its inbound traffic
    rides its rendezvous' relay queue), paused at ``HTTP_MID``."""
    sim = Simulator(seed=7)
    network = Network(sim)
    recorder = KernelTraceRecorder(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=4, topology="chain"),
    )
    for i, transport in enumerate(("http", "tcp")):
        overlay.edges.append(overlay.group.create_edge(
            Node(4 + i, GRID5000_SITES[4 + i]),
            seeds=[overlay.rendezvous[i].address],
            name=f"edge-{i}",
            transport=transport,
        ))
    overlay.start()
    sim.run(until=HTTP_MID)
    return network, overlay, recorder


class TestHttpEdgeRestore:
    def test_restored_http_edge_run_traces_like_the_uninterrupted_one(self):
        network, overlay, recorder = _http_deploy()
        assert overlay.edges[0].relay_client.attached
        network.sim.run(until=HTTP_END)
        baseline = recorder.entries

        network, overlay, recorder = _http_deploy()
        blob = snapshot_network(
            network, extra={"overlay": overlay, "recorder": recorder}
        )
        del network, overlay, recorder  # continue from the restored copy
        network2, extra = restore_network(blob)
        network2.sim.run(until=HTTP_END)
        assert extra["overlay"].edges[0].relay_client.attached
        assert extra["recorder"].entries == baseline


class TestChurnGraphSnapshot:
    def test_fuzz_churn_case_snapshots_mid_window(self, monkeypatch):
        """Fuzz seed case 3 (churn plus loss) snapshotted at t = 165 s,
        inside its 60–180 s churn window: continuing, and separately
        restoring and continuing, both fire the uninterrupted kernel
        trace.  The fuzzer skips this probe on churn cases only for its
        cost, so the test lifts that gate."""
        case = SEED_CASES[2]
        assert fuzz_runner.has_churn(case) and case.workload is None
        base = fuzz_runner.run_case(case, reads=(fuzz_runner.DIGEST,))
        monkeypatch.setattr(fuzz_runner, "has_churn", lambda case: False)
        continued, restored, skip = (
            fuzz_runner.run_case_with_midpoint_snapshot(case)
        )
        assert skip is None
        assert len(base.trace) > 1000
        assert continued == base.trace
        assert restored == base.trace


class TestFork:
    def test_fork_and_original_continue_identically(self):
        network, overlay, recorder = _deploy(seed=5)
        clone, extra = restore_network(snapshot_network(
            network, extra={"overlay": overlay, "recorder": recorder}
        ))
        original = _continue(network, overlay, recorder)
        forked = _continue(clone, extra["overlay"], extra["recorder"])
        assert forked == original

    def test_fork_preserves_shared_stream_identity(self):
        network, overlay, recorder = _deploy(seed=5)
        clone, _ = restore_network(snapshot_network(network))
        # the clone's transport latency stream is the clone registry's
        # stream object, never the original's (no cross-graph leakage)
        assert clone.sim.rng is not network.sim.rng
        for name in clone.sim.rng._streams:
            assert clone.sim.rng.stream(name) is not network.sim.rng.stream(
                name
            )
        # start jitter is a draw count per task name, not a stream: the
        # clone carries every count (one per started task) in its own map
        draws = network.sim.rng._draws
        assert draws and set(draws.values()) == {1}
        assert all(name.startswith("jitter:") for name in draws)
        assert clone.sim.rng._draws == draws
        assert clone.sim.rng._draws is not draws
        assert not set(draws) & set(network.sim.rng._streams)


def _load_run(store):
    run = load_exp.run_load(
        LOAD_SPEC, r=8, seed=3, record=True, checkpoint_store=store
    )
    return run.digest(), run.snapshot()


def _churn_run(store):
    return churn_exp.run_point(
        r=16, mean_session=20 * MINUTES, seed=2, checkpoint_store=store
    )


def _fig4_right_run(store):
    return fig4_right.run_point(
        8, True, queries=30, seed=1, warmup=8 * MINUTES, noisers=10,
        fakes_per_noiser=50, checkpoint_store=store,
    )


LOAD_SPEC = WorkloadSpec(
    name="load",
    duration=30.0,
    warmup=5 * MINUTES,
    catalog={"popularity": "zipf", "size": 40, "skew": 1.0},
    arrivals={"kind": "poisson", "rate": 2.0},
    queriers=4,
    publishers=2,
    timeout=10.0,
)

#: every experiment bootstrap that goes through ``warm_start``, at the
#: size its reduced CLI run uses
WARM_STARTABLE = {
    "load": _load_run,
    "churn": _churn_run,
    "fig4-right": _fig4_right_run,
}


@functools.cache
def _cold_miss_hit(experiment):
    """``repr`` of a run without a store, of one that builds and stores
    its bootstrap and of one that restores it; the store's (hits,
    misses)."""
    run = WARM_STARTABLE[experiment]
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp) / "ckpts")
        runs = tuple(repr(run(s)) for s in (None, store, store))
        return runs, (store.hits, store.misses)


def _engine_and_bootstrap_seeded_load_runs():
    sim, overlay = load_exp._deploy(LOAD_SPEC.client_count, 8, 3)
    recorder = WorkloadTraceRecorder()
    engine = WorkloadEngine(LOAD_SPEC, sim, overlay.edges, recorder=recorder)
    engine.start()
    sim.run(until=LOAD_SPEC.horizon + LOAD_SPEC.timeout + load_exp.DRAIN_SLACK)
    return (recorder.digest(), engine.slo.snapshot()), _load_run(None)


class TestWarmStart:
    @pytest.mark.parametrize("repeat", REPEATS)
    @pytest.mark.parametrize("experiment", sorted(WARM_STARTABLE))
    def test_warm_start_is_invisible(self, experiment, repeat):
        """A run without a store, one that builds and stores its
        bootstrap, and one that restores it answer byte for byte the
        same."""
        (cold, warm_miss, warm_hit), counts = _cold_miss_hit(experiment)
        assert counts == (1, 1)
        assert warm_miss == cold
        assert warm_hit == cold

    def test_seeded_bootstrap_matches_the_engines_seed_event(self):
        """``run_load`` seeds the catalog inside its bootstrap and
        warm-starts the engine on top; an engine that schedules its own
        seed event on a bare deployment traces and answers the same."""
        engine_seeded, bootstrap_seeded = _engine_and_bootstrap_seeded_load_runs()
        assert engine_seeded == bootstrap_seeded
