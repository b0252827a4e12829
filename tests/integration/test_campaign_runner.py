"""Integration tests for the campaign runner: parallel determinism,
resume semantics, crash/timeout retry, SIGINT-style draining.

The test task types added to ``TASKS`` here reach worker processes
through the fork start method (the runner default on Linux), exactly as
the built-in tasks do.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    RunnerOptions,
    RunStore,
    task_key,
    write_aggregates,
)
from repro.campaign.progress import ProgressReporter
from repro.campaign.runner import run_in_memory
from repro.campaign.tasks import TASKS


def _square(params):
    if "touch_dir" in params:
        marker = Path(params["touch_dir"]) / f"{params['x']}-{params['seed']}"
        marker.write_text("ran")
    return {"y": float(params["x"]) ** 2, "series_times": [0.0, 1.0],
            "series_values": [0.0, float(params["x"])]}


def _crash_once(params):
    sentinel = Path(params["dir"]) / f"crashed-{params['x']}"
    if not sentinel.exists():
        sentinel.write_text("")
        os._exit(3)  # hard crash: no exception, no cleanup
    return {"y": float(params["x"])}


def _raise(params):
    raise ValueError("deterministic failure")


def _sleep(params):
    time.sleep(params["sleep"])
    return {"y": 1.0}


@pytest.fixture(autouse=True)
def throwaway_tasks(monkeypatch):
    """The throwaway task types, in the registry for one test."""
    for name, fn in (
        ("test-square", _square), ("test-crash-once", _crash_once),
        ("test-raise", _raise), ("test-sleep", _sleep),
    ):
        monkeypatch.setitem(TASKS, name, fn)


def square_spec(n=4, **base):
    return CampaignSpec(
        name="sq", task_type="test-square",
        grid={"x": list(range(1, n + 1)), "seed": [1, 2]}, base=base,
    )


def run_campaign(spec, root, jobs=1, resume=False, **opts):
    store = RunStore(root)
    runner = CampaignRunner(
        spec, store, RunnerOptions(jobs=jobs, **opts),
        progress=ProgressReporter(total=0, jobs=jobs, enabled=False),
    )
    manifest = runner.run(resume=resume)
    return store, manifest


class TestParallelDeterminism:
    def test_jobs2_matches_serial_bytes(self, tmp_path):
        spec = square_spec()
        store_a, mani_a = run_campaign(spec, tmp_path / "a", jobs=1)
        store_b, mani_b = run_campaign(spec, tmp_path / "b", jobs=2)
        results_a = {k: r["result"] for k, r in store_a.completed().items()}
        results_b = {k: r["result"] for k, r in store_b.completed().items()}
        assert results_a == results_b
        assert mani_a["completed_this_run"] == 8
        assert mani_b["completed_this_run"] == 8
        files_a = write_aggregates("sq", store_a.completed().values(), tmp_path / "outa")
        files_b = write_aggregates("sq", store_b.completed().values(), tmp_path / "outb")
        for left, right in zip(files_a, files_b):
            assert left.read_bytes() == right.read_bytes()

    def test_manifest_reports_speedup_fields(self, tmp_path):
        _, manifest = run_campaign(square_spec(n=2), tmp_path / "r", jobs=2)
        assert manifest["jobs"] == 2
        assert manifest["wall_seconds"] > 0
        assert manifest["task_seconds"] > 0
        assert "parallel_speedup_est" in manifest
        assert manifest["cpu_count"] == os.cpu_count()


class TestResume:
    def test_completed_keys_skipped(self, tmp_path):
        touch = tmp_path / "touch"
        touch.mkdir()
        spec = square_spec(n=3, touch_dir=str(touch))
        tasks = spec.expand()
        store = RunStore(tmp_path / "run")
        done = tasks[:2]
        for task in done:
            store.append({
                "key": task.key, "task": task.task_type,
                "params": task.params, "status": "ok",
                "result": {"y": 0.0}, "attempts": 1,
            })
        _, manifest = run_campaign(
            spec, tmp_path / "run", jobs=2, resume=True
        )
        assert manifest["skipped_resumed"] == 2
        assert manifest["completed_this_run"] == len(tasks) - 2
        ran = {m.name for m in touch.iterdir()}
        skipped = {f"{t.params['x']}-{t.params['seed']}" for t in done}
        assert ran.isdisjoint(skipped)
        assert len(ran) == len(tasks) - 2

    def test_resume_refuses_different_spec(self, tmp_path):
        spec = square_spec(n=2)
        run_campaign(spec, tmp_path / "run", jobs=1)
        other = square_spec(n=3)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_campaign(other, tmp_path / "run", jobs=1, resume=True)

    def test_fresh_run_rotates_old_store(self, tmp_path):
        spec = square_spec(n=2)
        run_campaign(spec, tmp_path / "run", jobs=1)
        store, manifest = run_campaign(spec, tmp_path / "run", jobs=1)
        assert manifest["skipped_resumed"] == 0
        assert (tmp_path / "run" / "tasks.jsonl.1.bak").exists()
        assert len(store.completed()) == 4


class TestCrashRecovery:
    def test_worker_crash_retried_with_success(self, tmp_path):
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        spec = CampaignSpec(
            name="crashy", task_type="test-crash-once",
            grid={"x": [1, 2, 3]}, base={"dir": str(crash_dir), "seed": 1},
        )
        store, manifest = run_campaign(
            spec, tmp_path / "run", jobs=2, retry_backoff=0.05
        )
        assert manifest["failed"] == []
        completed = store.completed()
        assert len(completed) == 3
        assert all(rec["attempts"] == 2 for rec in completed.values())
        crash_records = [
            r for r in store.records() if r["status"] == "crashed"
        ]
        assert len(crash_records) == 0  # crashes retried, not recorded

    def test_deterministic_error_fails_after_retries(self, tmp_path):
        spec = CampaignSpec(
            name="bad", task_type="test-raise", grid={"x": [1]},
            base={"seed": 1},
        )
        store, manifest = run_campaign(
            spec, tmp_path / "run", jobs=2,
            max_retries=1, retry_backoff=0.05,
        )
        key = task_key("test-raise", {"x": 1, "seed": 1})
        assert manifest["failed"] == [key]
        (record,) = store.records()
        assert record["status"] == "error"
        assert record["attempts"] == 2
        assert "deterministic failure" in record["error"]

    def test_timeout_kills_and_records(self, tmp_path):
        spec = CampaignSpec(
            name="slow", task_type="test-sleep", grid={"x": [1]},
            base={"sleep": 10.0, "seed": 1},
        )
        t0 = time.monotonic()
        store, manifest = run_campaign(
            spec, tmp_path / "run", jobs=2,
            task_timeout=0.3, max_retries=0,
        )
        assert time.monotonic() - t0 < 8.0
        (record,) = store.records()
        assert record["status"] == "timeout"
        assert manifest["failed"] == [record["key"]]


class TestDraining:
    def test_inline_drain_persists_and_resumes(self, tmp_path):
        spec = square_spec(n=3)
        store = RunStore(tmp_path / "run")

        class DrainAfterFirst(ProgressReporter):
            def task_done(self, label, status, wall_s):
                super().task_done(label, status, wall_s)
                runner.request_drain()

        runner = CampaignRunner(
            spec, store, RunnerOptions(jobs=1),
            progress=DrainAfterFirst(total=0, jobs=1, enabled=False),
        )
        manifest = runner.run()
        assert manifest["interrupted"] is True
        assert manifest["completed_this_run"] == 1
        # the partial store resumes to completion
        _, resumed = run_campaign(spec, tmp_path / "run", jobs=1, resume=True)
        assert resumed["interrupted"] is False
        assert resumed["skipped_resumed"] == 1
        assert resumed["completed_this_run"] == 5


class TestStoreRecordShape:
    def test_record_fields(self, tmp_path):
        store, _ = run_campaign(square_spec(n=1), tmp_path / "run", jobs=1)
        record = next(iter(store.completed().values()))
        assert set(record) == {
            "key", "task", "params", "status", "result", "error",
            "attempts", "wall_s", "max_rss_kb", "metrics", "worker",
        }
        assert record["error"] is None
        # the per-task observability snapshot is always present (empty
        # for tasks that never touch a Network, like square())
        assert set(record["metrics"]) == {"counters", "gauges", "histograms"}
        assert record["wall_s"] >= 0
        line = store.tasks_path.read_text().splitlines()[0]
        assert json.loads(line) == store.records()[0]


class TestRunInMemory:
    def test_records_come_back_in_spec_order_at_any_jobs(self):
        spec = square_spec(n=3)
        serial = run_in_memory(spec)
        pooled = run_in_memory(spec, jobs=2)
        assert [r["key"] for r in pooled] == [t.key for t in spec.expand()]
        assert [r["result"] for r in pooled] == [r["result"] for r in serial]

    def test_a_failed_task_raises(self):
        spec = CampaignSpec(name="bad", task_type="test-raise", grid={"x": [1]})
        with pytest.raises(RuntimeError, match="deterministic failure"):
            run_in_memory(spec)

    def test_an_unknown_task_type_names_the_known_ones(self):
        spec = CampaignSpec(name="bad", task_type="no-such-task", grid={"x": [1]})
        with pytest.raises(
            RuntimeError, match=r"unknown task type 'no-such-task' \(known: .*'churn'"
        ):
            run_in_memory(spec)
