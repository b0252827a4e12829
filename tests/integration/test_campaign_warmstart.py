"""Campaign warm-start: shared bootstraps build once, results don't move.

The §4 acceptance checks for the checkpoint subsystem at campaign
scale: a multi-task campaign with ``--warm-start`` skips the bootstrap
of every task after the first in a bootstrap group at ``--jobs 1`` (it
restores instead of rebuilding, and fires that many fewer kernel
events) while aggregates stay *byte-identical*; a corrupted checkpoint
blob mid-campaign is quarantined and rebuilt, never trusted.  What the
skip saves in wall time is ``benchmarks/test_bench_gates.py``'s.
"""

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    RunnerOptions,
    RunStore,
    write_aggregates,
)
from repro.campaign.progress import ProgressReporter
from repro.sim import Simulator

#: the shared bootstrap's warm-up end (``load_spec``'s ``warmup``)
WARMUP = 3600.0


def load_spec(out):
    """A small rate × skew grid whose four tasks share one bootstrap
    prefix (rate and skew only shape the *measurement* phase)."""
    return CampaignSpec(
        name="load", task_type="load",
        grid={"rate": [1.0, 2.0], "skew": [0.0, 1.0], "seed": [1]},
        base={
            # a long warm-up against a mid-size overlay: the regime the
            # cache exists for (bootstrap ≫ measurement)
            "r": 24, "duration": 5.0, "warmup": WARMUP,
            "queriers": 4, "publishers": 2, "catalog_size": 40,
        },
    )


def run_campaign(spec, root, jobs=1, warm_dir=None):
    store = RunStore(root)
    runner = CampaignRunner(
        spec, store,
        RunnerOptions(
            jobs=jobs,
            checkpoint_dir=str(warm_dir) if warm_dir else None,
        ),
        progress=ProgressReporter(total=0, jobs=jobs, enabled=False),
    )
    manifest = runner.run(resume=False)
    return store, manifest


def count_kernel_events(monkeypatch):
    """Tally, per ``Simulator.run`` call made in this process, its
    ``until``, the events it fired and the simulator's total after it:
    ``[(until, fired, total), ...]``."""
    calls = []
    run = Simulator.run

    def counted(self, until=None):
        before = self.events_fired
        try:
            return run(self, until)
        finally:
            calls.append((until, self.events_fired - before, self.events_fired))

    monkeypatch.setattr(Simulator, "run", counted)
    return calls


def results_of(store):
    return {k: r["result"] for k, r in store.completed().items()}


class TestWarmStartEquivalence:
    def test_warm_run_matches_cold_and_is_faster(self, tmp_path, monkeypatch):
        spec = load_spec(tmp_path)
        calls = count_kernel_events(monkeypatch)
        cold_store, cold_mani = run_campaign(spec, tmp_path / "cold")
        cold_calls, calls[:] = list(calls), []
        warm_store, warm_mani = run_campaign(
            spec, tmp_path / "warm", warm_dir=tmp_path / "ckpts"
        )

        assert results_of(warm_store) == results_of(cold_store)
        cold_files = write_aggregates(
            "load", cold_store.completed().values(), tmp_path / "agg-cold"
        )
        warm_files = write_aggregates(
            "load", warm_store.completed().values(), tmp_path / "agg-warm"
        )
        for left, right in zip(cold_files, warm_files):
            assert left.read_bytes() == right.read_bytes()

        # one bootstrap group of four tasks: built once, restored thrice
        assert warm_mani["checkpoint_misses"] == 1
        assert warm_mani["checkpoint_hits"] == 3
        assert warm_mani["checkpoint_saved_seconds_est"] > 0.0
        assert warm_mani["warm_start"] is True
        assert cold_mani.get("warm_start") is not True

        # three of four bootstraps skipped: the warm run fires fewer
        # kernel events than the cold one by at least three bootstraps'
        # worth (a bootstrap's count: the total of the simulator the
        # warm run builds, at the warm-up end; a cold task runs
        # straight through it)
        per_bootstrap = next(
            total for until, _, total in calls if until == WARMUP
        )
        cold_events = sum(fired for _, fired, _ in cold_calls)
        warm_events = sum(fired for _, fired, _ in calls)
        assert cold_events - warm_events >= 3 * per_bootstrap, (
            f"warm {warm_events} vs cold {cold_events} events "
            f"({per_bootstrap} per bootstrap)"
        )

    def test_pool_workers_share_the_store(self, tmp_path):
        """--jobs 2: the group leader builds, members restore; no
        duplicate builds, results identical to a cold serial run."""
        spec = load_spec(tmp_path)
        cold_store, _ = run_campaign(spec, tmp_path / "cold")
        warm_store, manifest = run_campaign(
            spec, tmp_path / "warm", jobs=2, warm_dir=tmp_path / "ckpts"
        )
        assert results_of(warm_store) == results_of(cold_store)
        assert manifest["checkpoint_misses"] == 1
        assert manifest["checkpoint_hits"] == 3

    def test_per_task_records_carry_checkpoint_traffic(self, tmp_path):
        spec = load_spec(tmp_path)
        store, _ = run_campaign(
            spec, tmp_path / "warm", warm_dir=tmp_path / "ckpts"
        )
        records = list(store.completed().values())
        assert len(records) == 4
        hits = sum(r["checkpoint"]["hits"] for r in records)
        misses = sum(r["checkpoint"]["misses"] for r in records)
        assert (hits, misses) == (3, 1)


class TestCorruptionRecovery:
    def test_corrupted_blob_quarantined_and_rebuilt(self, tmp_path):
        spec = load_spec(tmp_path)
        ckpts = tmp_path / "ckpts"
        first_store, _ = run_campaign(
            spec, tmp_path / "first", warm_dir=ckpts
        )

        blobs = sorted(ckpts.rglob("*.ckpt"))
        assert len(blobs) == 1
        raw = bytearray(blobs[0].read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blobs[0].write_bytes(bytes(raw))

        second_store, manifest = run_campaign(
            spec, tmp_path / "second", warm_dir=ckpts
        )
        # the poisoned blob read as a miss, was quarantined, and the
        # rebuilt checkpoint served the remaining tasks
        assert results_of(second_store) == results_of(first_store)
        assert manifest["checkpoint_misses"] == 1
        assert manifest["checkpoint_hits"] == 3
        assert list(ckpts.rglob("*.corrupt"))
        assert sorted(ckpts.rglob("*.ckpt")) == blobs
