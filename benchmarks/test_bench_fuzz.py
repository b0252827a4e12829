"""Bench: host cost of one simulated event under the fuzzer's battery.

A fuzz budget is genomes × executions per genome × events × cost per
event.  The genomes and their events are pinned (the report digest in
``tests/integration/test_fuzz_report_digest.py``, ``sim_digest`` of the
end-to-end benchmark's ``fuzz-batch``), so what is left to a change is
how many executions a genome takes and what an event costs *with the
oracles' instruments riding on it* — the four overlay workloads run
the same stack at ≈ 10 µs/event, the battery at more, and the
difference is instruments (docs/PERFORMANCE.md, "What a fuzz execution
costs").  This puts both on the recorded trajectory, as
``us_per_fuzz_event`` and ``executions_per_genome``.

The slice is the first four genomes of ``fuzz-batch``'s sequence: a
fresh engine on the workload's master seed, the ``SEED_CASES`` prologue
outside the timer, then four mutated genomes under the full battery.
Events are counted where they fire (``Simulator.run``, whichever
simulator — built, or restored by the snapshot oracle), executions
where the battery starts them.
"""

from repro.campaign.spec import derive_seed
from repro.fuzz import runner
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.genome import SEED_CASES
from repro.sim import Simulator

#: ``bench/workloads.py``'s FUZZ_MASTER_SEED
MASTER_SEED = derive_seed(1, "bench/fuzz-batch")
GENOMES = 4
#: the minimum of three rounds read 14.85–22.76 µs/event across six
#: invocations on a loaded 2-vCPU box, wider than the +15 % CI floor
ROUNDS = 10


def test_fuzz_slice_cost(benchmark, monkeypatch):
    prologue = len(SEED_CASES)
    counted = {"events": 0, "executions": 0}
    run = Simulator.run
    run_case = runner.run_case
    midpoint = runner.run_case_with_midpoint_snapshot

    def counting_run(self, until=None):
        before = self.events_fired
        try:
            return run(self, until)
        finally:
            counted["events"] += self.events_fired - before

    def counting_run_case(*args, **kwargs):
        counted["executions"] += 1
        return run_case(*args, **kwargs)

    def counting_midpoint(*args, **kwargs):
        continued, restored, skip = midpoint(*args, **kwargs)
        if skip is None:
            counted["executions"] += 2  # continued + restored
        return continued, restored, skip

    monkeypatch.setattr(Simulator, "run", counting_run)
    monkeypatch.setattr(runner, "run_case", counting_run_case)
    monkeypatch.setattr(
        runner, "run_case_with_midpoint_snapshot", counting_midpoint
    )

    def fresh_engine():
        engine = FuzzEngine(seed=MASTER_SEED)
        engine.run(prologue)
        counted["events"] = counted["executions"] = 0
        return (engine,), {}

    def slice_(engine):
        # the prologue is skipped as already seen (it still counts as
        # executed), the next GENOMES indices are new genomes
        return engine.run(prologue + GENOMES)

    report = benchmark.pedantic(
        slice_, setup=fresh_engine, rounds=ROUNDS, iterations=1
    )
    assert report.executed == 2 * prologue + GENOMES
    assert report.failures == []
    assert counted["events"] > 20_000
    benchmark.extra_info["us_per_fuzz_event"] = round(
        1e6 * benchmark.stats.stats.min / counted["events"], 3
    )
    benchmark.extra_info["executions_per_genome"] = round(
        counted["executions"] / GENOMES, 2
    )
