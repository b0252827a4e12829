"""Unit tests for churn models and the churn process."""

import random

import pytest

from repro.faults import ChurnWindow
from repro.faults.engine import FaultContext
from repro.network.churn import (
    ChurnProcess,
    ExponentialChurn,
    ParetoChurn,
)
from repro.sim import Simulator


class TestExponentialChurn:
    def test_mean_session_approximately_respected(self):
        m = ExponentialChurn(mean_session=100.0, mean_downtime=10.0)
        rng = random.Random(0)
        draws = [m.session_length(rng) for _ in range(5000)]
        assert 90 < sum(draws) / len(draws) < 110

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ExponentialChurn(0.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialChurn(1.0, -1.0)


class TestParetoChurn:
    def test_median_session_approximately_respected(self):
        m = ParetoChurn(median_session=60.0, mean_downtime=10.0)
        rng = random.Random(0)
        draws = sorted(m.session_length(rng) for _ in range(5001))
        median = draws[len(draws) // 2]
        assert 50 < median < 72

    def test_draws_bounded_below_by_scale(self):
        m = ParetoChurn(median_session=60.0, mean_downtime=10.0, shape=2.0)
        rng = random.Random(1)
        assert all(m.session_length(rng) >= m.scale for _ in range(1000))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            ParetoChurn(60.0, 10.0, shape=1.0)


class FakePeer:
    """What churn drives: a ``running`` flag, ``crash()`` and ``start()``,
    each call logged with the peer's name and the simulated time."""

    def __init__(self, name, sim, events):
        self.name, self.sim, self.events = name, sim, events
        self.running = True

    def crash(self):
        self.running = False
        self.events.append(("kill", self.name, self.sim.now))

    def start(self):
        self.running = True
        self.events.append(("revive", self.name, self.sim.now))


def fake_peers(sim, names, events):
    return {name: FakePeer(name, sim, events) for name in names}


class TestChurnProcess:
    def _run(self, horizon=1000.0):
        sim = Simulator(seed=3)
        events = []
        proc = ChurnProcess(
            sim,
            ExponentialChurn(mean_session=50.0, mean_downtime=20.0),
            fake_peers(sim, ["p1", "p2", "p3"], events),
        )
        proc.start()
        sim.run(until=horizon)
        return proc, events

    def test_kills_and_revives_alternate_per_target(self):
        _, events = self._run()
        per_target = {}
        for kind, target, _ in events:
            per_target.setdefault(target, []).append(kind)
        for seq in per_target.values():
            for i, kind in enumerate(seq):
                assert kind == ("kill" if i % 2 == 0 else "revive")

    def test_counters_match_events(self):
        proc, events = self._run()
        kills = sum(1 for k, _, _ in events if k == "kill")
        revives = sum(1 for k, _, _ in events if k == "revive")
        assert proc.kill_count == kills
        assert proc.revive_count == revives
        assert kills > 0

    def test_stop_halts_churn(self):
        sim = Simulator(seed=3)
        events = []
        proc = ChurnProcess(
            sim,
            ExponentialChurn(mean_session=10.0, mean_downtime=10.0),
            fake_peers(sim, ["p1"], events),
        )
        proc.start()
        sim.run(until=100.0)
        count = len(events)
        proc.stop()
        sim.run(until=1000.0)
        assert len(events) == count

    def test_deterministic_given_seed(self):
        _, e1 = self._run()
        _, e2 = self._run()
        assert e1 == e2


class TestChurnEdgeCases:
    def test_empty_and_duplicate_targets_rejected(self):
        sim = Simulator(seed=7)
        model = ExponentialChurn(mean_session=10.0, mean_downtime=10.0)
        with pytest.raises(ValueError, match="at least one target"):
            ChurnProcess(sim, model, {})
        # a mapping cannot repeat a name; a fault window's list can
        context = FaultContext(sim, None, fake_peers(sim, ["p1"], []), None)
        with pytest.raises(ValueError, match="duplicate"):
            context.start_churn(
                ChurnWindow(at=0.0, duration=60.0, targets=("p1", "p1"))
            )

    def test_distribution_param_validation(self):
        with pytest.raises(ValueError):
            ExponentialChurn(mean_session=-5.0, mean_downtime=10.0)
        with pytest.raises(ValueError):
            ExponentialChurn(mean_session=10.0, mean_downtime=0.0)
        with pytest.raises(ValueError):
            ParetoChurn(median_session=0.0, mean_downtime=10.0)
        with pytest.raises(ValueError):
            ParetoChurn(median_session=60.0, mean_downtime=10.0, shape=0.9)
