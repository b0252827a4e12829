"""Unit tests for the shared experiment machinery and the CLI."""

import inspect

import pytest

from repro.experiments import cli
from repro.experiments.common import (
    DiscoverySample,
    mean_latency_ms,
    run_peerview_overlay,
    run_query_sequence,
    success_rate,
)
from repro.metrics.series import peerview_size_series
from repro.sim import MINUTES


class TestRunPeerviewOverlay:
    def test_collects_events_for_observer(self):
        run = run_peerview_overlay(r=5, duration=5 * MINUTES)
        assert len(run.log) > 0
        assert {e.actor for e in run.log.events} == {"rdv-0"}
        assert run.r == 5
        series = peerview_size_series(run.log, "rdv-0")
        assert series.final == 4


class TestQuerySequence:
    def test_sequential_queries_counted(self):
        from repro.advertisement import FakeAdvertisement
        from repro.config import PlatformConfig
        from repro.deploy import OverlayDescription, build_overlay
        from repro.network import Network
        from repro.sim import Simulator

        sim = Simulator(seed=2)
        overlay = build_overlay(
            sim, Network(sim), PlatformConfig(),
            OverlayDescription(rendezvous_count=4, edge_count=2,
                               edge_attachment=[0, 2]),
        )
        overlay.start()
        sim.run(until=8 * MINUTES)
        overlay.edges[0].discovery.publish(FakeAdvertisement("seq"))
        sim.run(until=sim.now + 2 * MINUTES)
        samples = run_query_sequence(
            sim, overlay.edges[1],
            "repro:FakeAdvertisement", "Name", "seq", count=10,
        )
        assert len(samples) == 10
        assert all(s.found for s in samples)
        # cache flush between queries: every query really hit the net
        assert all(s.latency > 0.001 for s in samples)


class TestStats:
    def test_mean_latency_ms(self):
        samples = [
            DiscoverySample(0.010, True),
            DiscoverySample(0.020, True),
            DiscoverySample(30.0, False),  # timeout excluded
        ]
        assert mean_latency_ms(samples) == pytest.approx(15.0)

    def test_mean_latency_requires_success(self):
        with pytest.raises(RuntimeError):
            mean_latency_ms([DiscoverySample(30.0, False)])

    def test_success_rate(self):
        samples = [DiscoverySample(0.01, True), DiscoverySample(30.0, False)]
        assert success_rate(samples) == 0.5

    def test_success_rate_empty_rejected(self):
        with pytest.raises(RuntimeError):
            success_rate([])


class TestCli:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["no-such-figure"])

    def test_table1_runs(self, capsys):
        assert cli.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "matches paper: True" in out

    def test_experiment_registry_covers_all_artefacts(self):
        assert set(cli.EXPERIMENTS) == {
            "table1", "fig3-left", "fig3-right", "fig4-left",
            "fig4-right", "baselines", "ablation", "churn",
            "complex-queries", "faults", "transport", "calibration",
            "load",
        }


class TestRunProtocol:
    """Every experiment is ``run(**SIZES[size], seed=...)`` — checked
    on the signatures, without running anything."""

    @pytest.mark.parametrize("size", ["ci", "full"])
    @pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
    def test_sizes_bind_to_run(self, name, size):
        module = cli.EXPERIMENTS[name]
        inspect.signature(module.run).bind(**module.SIZES[size], seed=1)

    def test_warm_start_is_the_modules_with_a_bootstrap_spec(self):
        takes_store = {
            name for name, module in cli.EXPERIMENTS.items()
            if "checkpoint_store" in inspect.signature(module.run).parameters
        }
        with_spec = {
            name for name, module in cli.EXPERIMENTS.items()
            if hasattr(module, "bootstrap_spec")
        }
        assert takes_store == with_spec == {"churn", "fig4-right", "load"}
