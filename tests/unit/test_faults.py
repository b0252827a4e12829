"""Unit tests: fault actions, scenario engine, invariant checker."""

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.faults import (
    FAULT_FREE,
    ChurnWindow,
    ClockSkew,
    CorruptPeerView,
    CrashPeer,
    DuplicateWindow,
    HealSites,
    InvariantChecker,
    LossWindow,
    PartitionSites,
    ReorderWindow,
    RestartPeer,
    Scenario,
    ScenarioEngine,
    peers_of,
)
from repro.network import Network
from repro.obs.tracer import TimelineTracer
from repro.network.transport import FaultDecision
from repro.sim import MINUTES, Simulator


def deploy(r=6, seed=1, duration_warmup=None):
    sim = Simulator(seed=seed)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=r, topology="chain"),
    )
    return sim, network, overlay


def engine_for(sim, network, overlay, scenario):
    return ScenarioEngine(sim, network, peers_of(overlay), scenario)


class TestActionValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CrashPeer(at=-1.0, peer="rdv-0")

    def test_window_needs_positive_duration(self):
        with pytest.raises(ValueError):
            LossWindow(at=0.0, duration=0.0, rate=0.5)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            LossWindow(at=0.0, duration=1.0, rate=0.0)
        with pytest.raises(ValueError):
            LossWindow(at=0.0, duration=1.0, rate=1.5)

    def test_duplicate_copies_bounds(self):
        with pytest.raises(ValueError):
            DuplicateWindow(at=0.0, duration=1.0, probability=0.5, copies=0)

    def test_reorder_delay_bounds(self):
        with pytest.raises(ValueError):
            ReorderWindow(at=0.0, duration=1.0, max_extra_delay=0.0)

    def test_clock_skew_factor_positive(self):
        with pytest.raises(ValueError):
            ClockSkew(at=0.0, peer="rdv-0", factor=0.0)

    def test_corruption_mode_checked(self):
        with pytest.raises(ValueError):
            CorruptPeerView(at=0.0, peer="rdv-0", mode="scramble")

    def test_churn_window_params(self):
        with pytest.raises(ValueError):
            ChurnWindow(at=0.0, duration=10.0, mean_session=0.0)

    def test_scenario_needs_name_and_actions(self):
        with pytest.raises(ValueError):
            Scenario(name="")
        with pytest.raises(TypeError):
            Scenario(name="x", actions=("not-an-action",))

    def test_scenario_horizon_covers_windows(self):
        s = Scenario(
            name="s",
            actions=(
                LossWindow(at=10.0, duration=20.0, rate=0.5),
                CrashPeer(at=50.0, peer="rdv-1"),
            ),
        )
        assert s.horizon == 50.0
        assert not s.fault_free()
        assert FAULT_FREE.fault_free()


class TestScenarioEngine:
    def test_crash_and_restart_fire_at_scheduled_times(self):
        sim, network, overlay = deploy()
        scenario = Scenario(
            name="cr",
            actions=(
                CrashPeer(at=2 * MINUTES, peer="rdv-2"),
                RestartPeer(at=4 * MINUTES, peer="rdv-2"),
            ),
        )
        engine = engine_for(sim, network, overlay, scenario)
        overlay.start()
        engine.start()
        target = overlay.rendezvous[2]
        sim.run(until=3 * MINUTES)
        assert not target.running
        sim.run(until=5 * MINUTES)
        assert target.running
        assert [a.kind for _, a in engine.applied] == ["CrashPeer", "RestartPeer"]

    def test_applied_actions_recorded_in_log(self):
        sim, network, overlay = deploy()
        scenario = Scenario(
            name="p",
            actions=(
                PartitionSites(at=60.0, site_a="rennes", site_b="sophia"),
                HealSites(at=120.0, site_a="rennes", site_b="sophia"),
            ),
        )
        engine = engine_for(sim, network, overlay, scenario)
        overlay.start()
        engine.start()
        sim.run(until=90.0)
        assert network.is_partitioned("rennes", "sophia")
        sim.run(until=150.0)
        assert not network.is_partitioned("rennes", "sophia")
        assert [(t, a.kind) for t, a in engine.applied] == [
            (60.0, "PartitionSites"), (120.0, "HealSites"),
        ]

    def test_loss_window_drops_only_inside_window(self):
        sim, network, overlay = deploy()
        scenario = Scenario(
            name="loss",
            actions=(LossWindow(at=5 * MINUTES, duration=5 * MINUTES, rate=1.0),),
        )
        engine = engine_for(sim, network, overlay, scenario)
        overlay.start()
        engine.start()
        sim.run(until=4 * MINUTES)
        assert network.faulted_drops == 0
        sim.run(until=9 * MINUTES)
        in_window = network.faulted_drops
        assert in_window > 0
        sim.run(until=11 * MINUTES)
        # overlay recovers: new sends are not dropped by faults
        before = network.faulted_drops
        sim.run(until=15 * MINUTES)
        assert network.faulted_drops == before

    def test_duplicate_window_duplicates_messages(self):
        sim, network, overlay = deploy()
        scenario = Scenario(
            name="dup",
            actions=(
                DuplicateWindow(
                    at=60.0, duration=5 * MINUTES, probability=1.0, copies=2
                ),
            ),
        )
        engine = engine_for(sim, network, overlay, scenario)
        overlay.start()
        engine.start()
        sim.run(until=3 * MINUTES)
        assert network.faulted_duplicates > 0

    def test_clock_skew_scales_and_restores_interval(self):
        sim, network, overlay = deploy()
        base = PlatformConfig().peerview_interval
        scenario = Scenario(
            name="skew",
            actions=(
                ClockSkew(at=60.0, peer="rdv-1", factor=3.0),
                ClockSkew(at=300.0, peer="rdv-1", factor=1.0),
            ),
        )
        engine = engine_for(sim, network, overlay, scenario)
        overlay.start()
        engine.start()
        task = overlay.rendezvous[1].peerview_protocol._task
        sim.run(until=120.0)
        assert task.interval == base * 3.0
        sim.run(until=360.0)
        assert task.interval == base

    def test_churn_window_revives_everyone_at_end(self):
        sim, network, overlay = deploy(r=8)
        scenario = Scenario(
            name="churn",
            actions=(
                ChurnWindow(
                    at=2 * MINUTES, duration=10 * MINUTES,
                    mean_session=2 * MINUTES, mean_downtime=1 * MINUTES,
                    targets=("rdv-2", "rdv-3", "rdv-4"),
                ),
            ),
        )
        engine = engine_for(sim, network, overlay, scenario)
        overlay.start()
        engine.start()
        sim.run(until=20 * MINUTES)
        churn = engine.context.churn_processes[0]
        assert churn.kill_count > 0
        assert all(p.running for p in overlay.rendezvous)

    def test_unknown_peer_surfaces_clearly(self):
        sim, network, overlay = deploy()
        scenario = Scenario(
            name="bad", actions=(CrashPeer(at=10.0, peer="rdv-99"),)
        )
        engine = engine_for(sim, network, overlay, scenario)
        overlay.start()
        engine.start()
        with pytest.raises(ValueError, match="rdv-99"):
            sim.run(until=60.0)

    def test_double_controller_installation_rejected(self):
        sim, network, overlay = deploy()
        engine_for(sim, network, overlay, FAULT_FREE).start()
        with pytest.raises(RuntimeError):
            engine_for(sim, network, overlay, FAULT_FREE).start()

    def test_stop_uninstalls_controller(self):
        sim, network, overlay = deploy()
        engine = engine_for(sim, network, overlay, FAULT_FREE)
        engine.start()
        assert network.fault_controller is engine.controller
        engine.stop()
        assert network.fault_controller is None


class TestFaultDecision:
    def test_invalid_decisions_rejected(self):
        with pytest.raises(ValueError):
            FaultDecision(duplicates=-1)
        with pytest.raises(ValueError):
            FaultDecision(extra_delay=-0.5)


class TestInvariantChecker:
    def run_with(self, scenario, r=6, duration=12 * MINUTES, seed=2):
        sim, network, overlay = deploy(r=r, seed=seed)
        log = TimelineTracer()
        engine = engine_for(sim, network, overlay, scenario)
        checker = InvariantChecker(sim, overlay.rendezvous, engine, log=log)
        overlay.start()
        engine.start()
        sim.run(until=duration)
        return checker, log, overlay

    def test_clean_run_reports_zero_violations(self):
        checker, log, _ = self.run_with(FAULT_FREE)
        assert checker.ok
        assert checker.rounds_checked > 0
        assert "OK" in checker.report()

    def test_convergence_metric_emitted(self):
        checker, log, overlay = self.run_with(FAULT_FREE)
        events = list(log.events)
        assert events
        assert {(e.cat, e.name) for e in events} == {("invariant", "convergence")}
        # converged overlay: final ratios reach 1.0
        assert events[-1].args["value"] == pytest.approx(1.0)

    def test_order_corruption_flagged(self):
        scenario = Scenario(
            name="corrupt",
            actions=(CorruptPeerView(at=6 * MINUTES, peer="rdv-0", mode="swap"),),
        )
        checker, log, _ = self.run_with(scenario)
        assert not checker.ok
        assert "peerview.total-order" in checker.summary()
        first = checker.violations[0]
        assert (first.time, first.observer) == (6 * MINUTES, "rdv-0")
        assert "VIOLATED" in checker.report()

    def test_duplicate_corruption_flagged(self):
        scenario = Scenario(
            name="corrupt-dup",
            actions=(
                CorruptPeerView(at=6 * MINUTES, peer="rdv-1", mode="duplicate"),
            ),
        )
        checker, _, _ = self.run_with(scenario)
        kinds = checker.summary()
        assert "peerview.consistency" in kinds or "peerview.total-order" in kinds

    def test_check_all_on_demand(self):
        sim, network, overlay = deploy()
        checker = InvariantChecker(
            sim, overlay.rendezvous,
            engine_for(sim, network, overlay, FAULT_FREE),
        )
        overlay.start()
        sim.run(until=5 * MINUTES)
        assert checker.check_all() == []
        overlay.rendezvous[0].view._order.reverse()
        overlay.rendezvous[0].view.invalidate_ordered_view()
        found = checker.check_all()
        assert any(v.invariant == "peerview.total-order" for v in found)

    def test_refresh_without_the_move_flagged(self):
        # whoever writes _stamps[key] moves the key to the end of the
        # entry table; a stamp left in place breaks what expire reads
        sim, network, overlay = deploy()
        checker = InvariantChecker(
            sim, overlay.rendezvous,
            engine_for(sim, network, overlay, FAULT_FREE),
        )
        overlay.start()
        sim.run(until=5 * MINUTES + 1.0)
        assert checker.check_all() == []
        view = overlay.rendezvous[0].view
        entries = view._entries
        first = next(iter(entries))
        view._stamps[first] = sim.now
        found = checker.check_all()
        assert [v.invariant for v in found] == ["peerview.refresh-order"]
        entries[first] = entries.pop(first)  # the move
        assert checker.check_all() == []

    def test_detach_stops_checking(self):
        sim, network, overlay = deploy()
        checker = InvariantChecker(
            sim, overlay.rendezvous,
            engine_for(sim, network, overlay, FAULT_FREE),
        )
        overlay.start()
        sim.run(until=3 * MINUTES)
        seen = checker.rounds_checked
        checker.detach()
        sim.run(until=6 * MINUTES)
        assert checker.rounds_checked == seen

    def test_crashed_peer_not_checked(self):
        sim, network, overlay = deploy()
        scenario = Scenario(
            name="crash", actions=(CrashPeer(at=2 * MINUTES, peer="rdv-0"),)
        )
        log = TimelineTracer()
        engine = engine_for(sim, network, overlay, scenario)
        checker = InvariantChecker(sim, overlay.rendezvous, engine, log=log)
        overlay.start()
        engine.start()
        sim.run(until=10 * MINUTES)
        assert checker.ok
        late = [e for e in log.events if e.actor == "rdv-0" and e.t > 3 * MINUTES]
        assert late == []
