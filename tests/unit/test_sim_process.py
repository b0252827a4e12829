"""Unit tests for Process and PeriodicTask."""

import random

import pytest

from repro.network import Network
from repro.sim import PeriodicTask, Process, SchedulingError, Simulator, derive_seed
from repro.snapshot import restore_network, snapshot_network


class TickTimes:
    """A picklable tick callback that records the clock."""

    def __init__(self, sim):
        self.sim = sim
        self.times = []

    def __call__(self):
        self.times.append(self.sim.now)


class TestProcess:
    def test_start_stop_lifecycle(self):
        sim = Simulator()
        p = Process(sim, "p")
        assert not p.started
        p.start()
        assert p.started
        p.stop()
        assert not p.started

    def test_double_start_rejected(self):
        sim = Simulator()
        p = Process(sim)
        p.start()
        with pytest.raises(SchedulingError):
            p.start()

    def test_stop_when_not_started_is_noop(self):
        sim = Simulator()
        Process(sim).stop()  # must not raise

    def test_hooks_called(self):
        sim = Simulator()
        calls = []

        class P(Process):
            def on_start(self):
                calls.append("start")

            def on_stop(self):
                calls.append("stop")

        p = P(sim)
        p.start()
        p.stop()
        assert calls == ["start", "stop"]


class TestPeriodicTask:
    def test_ticks_at_interval(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 30.0, lambda: times.append(sim.now))
        task.start()
        sim.run(until=100.0)
        assert times == [30.0, 60.0, 90.0]
        assert task.ticks == 3

    def test_immediate_first_tick(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 30.0, lambda: times.append(sim.now), immediate=True)
        task.start()
        sim.run(until=70.0)
        assert times == [0.0, 30.0, 60.0]

    def test_stop_halts_ticking(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 10.0, lambda: times.append(sim.now))
        task.start()
        sim.run(until=25.0)
        task.stop()
        sim.run(until=100.0)
        assert times == [10.0, 20.0]

    def test_start_jitter_is_deterministic_and_bounded(self):
        def first_tick(seed):
            sim = Simulator(seed=seed)
            times = []
            t = PeriodicTask(
                sim, 30.0, lambda: times.append(sim.now), name="pv", start_jitter=5.0
            )
            t.start()
            sim.run(until=40.0)
            return times[0]

        a, b = first_tick(1), first_tick(1)
        assert a == b
        assert 30.0 <= a < 35.0
        assert first_tick(1) != first_tick(2)

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None)
        with pytest.raises(ValueError):
            PeriodicTask(sim, -1.0, lambda: None)

    def test_negative_jitter_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda: None, start_jitter=-1.0)

    def test_callback_exception_propagates(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        task = PeriodicTask(sim, 1.0, boom)
        task.start()
        with pytest.raises(RuntimeError):
            sim.run(until=2.0)


class TestStartJitter:
    """Each start of a task draws the next value of one named sequence,
    ``Random(derive_seed(seed, "jitter:<name>"))``, though the registry
    keeps only how many values were drawn, not the stream."""

    SEED = 11
    JITTER = 5.0

    def _jitters(self, count):
        rng = random.Random(derive_seed(self.SEED, "jitter:pv"))
        return [rng.uniform(0.0, self.JITTER) for _ in range(count)]

    def _task(self, sim):
        # immediate: the first tick fires at start + jitter
        return PeriodicTask(
            sim, 30.0, TickTimes(sim), name="pv",
            start_jitter=self.JITTER, immediate=True,
        )

    @staticmethod
    def _start_once(task):
        """Start, run to the first tick, stop; the start instant."""
        started = task.sim.now
        task.start()
        task.sim.run(until=started + 10.0)
        task.stop()
        return started

    def test_three_starts_draw_the_first_three_values(self):
        sim = Simulator(seed=self.SEED)
        task = self._task(sim)
        starts = [self._start_once(task) for _ in range(3)]
        assert task.callback.times == [
            start + jitter for start, jitter in zip(starts, self._jitters(3))
        ]
        assert sim.rng._draws == {"jitter:pv": 3}
        assert "jitter:pv" not in sim.rng._streams

    def test_a_restored_task_draws_the_next_value(self):
        sim = Simulator(seed=self.SEED)
        network = Network(sim)
        task = self._task(sim)
        first = self._start_once(task)
        network2, task2 = restore_network(snapshot_network(network, extra=task))
        assert task2.sim is network2.sim
        expected = self._jitters(3)
        for t in (task, task2):
            starts = [first] + [self._start_once(t) for _ in range(2)]
            assert t.callback.times == [
                start + jitter for start, jitter in zip(starts, expected)
            ]
            assert t.sim.rng._draws == {"jitter:pv": 3}
