"""Multiprocessing campaign runner.

Architecture: the parent owns the task list and dispatches to a pool of
``--jobs`` worker processes over *per-worker* queues (an inbox and an
outbox each).  Per-worker outboxes mean a worker killed mid-write can
only corrupt its own channel, which dies with it — the pool and the
other in-flight results are unaffected.

Reliability behaviors:

* **Deterministic results** — tasks are pure functions of their params
  (each seeds its own simulator), so scheduling order cannot change any
  result; the run store is keyed by content hash, and aggregation sorts
  by key, making ``--jobs 1`` and ``--jobs N`` byte-identical.
* **Per-task timeout** — a worker running past ``task_timeout`` is
  terminated and replaced; the task is retried like a crash.
* **Retry with backoff** — a crashed worker (or a task raising) is
  retried up to ``max_retries`` times with exponential backoff before
  the task is recorded as failed.
* **Graceful SIGINT draining** — first Ctrl-C stops dispatching and
  lets in-flight tasks finish (their results are persisted; a later
  ``--resume`` picks up from there); a second Ctrl-C aborts hard.
* **Crash safety** — every finished task is fsynced into the JSONL
  store before it counts as done; ``resume=True`` skips completed keys.

:func:`run_in_memory` runs a spec on this pool in a throwaway store and
returns its records: ``--seeds N``, ``jxta-repro fuzz --jobs N`` and
multi-seed scripts fan out through it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import platform
import queue as queue_mod
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import CampaignSpec, TaskSpec
from repro.campaign.store import RunStore
from repro.campaign.tasks import TASKS


#: worker start method: fork where the platform has it (test task types
#: registered in the parent reach the workers), spawn elsewhere
_MP_CONTEXT = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
#: how long the pool loop sleeps when no worker made progress (seconds)
_POLL_INTERVAL = 0.05


@dataclass
class RunnerOptions:
    jobs: int = 1
    #: kill + retry a task running longer than this (seconds; None = off)
    task_timeout: Optional[float] = None
    #: attempts beyond the first before a task is recorded as failed
    max_retries: int = 2
    #: first retry delay; doubles per subsequent attempt
    retry_backoff: float = 0.5
    #: restore task bootstraps from the content-addressed checkpoint
    #: cache in this directory (built on first use; None = cold);
    #: results stay byte-identical to cold runs — see docs/CHECKPOINTS.md
    checkpoint_dir: Optional[str] = None


def _execute(task_type: str, params: Dict[str, Any]) -> Tuple[str, Any, Dict[str, Any]]:
    """Run one task with telemetry; exceptions become an error payload.

    Every task runs under a metrics-only observability session
    (:mod:`repro.obs`): the merged protocol-counter snapshot rides
    along in the telemetry and is persisted per task.  Recording is
    passive — the snapshot is a pure function of the task params, so
    the byte-identity guarantees are unaffected."""
    import resource

    from repro.obs.runtime import ObsSession, activate, deactivate

    from repro.campaign.tasks import warm_store

    t0 = time.perf_counter()
    store = warm_store()
    ckpt_before = store.counters() if store is not None else None
    obs_session = activate(ObsSession(metrics=True))
    try:
        if task_type not in TASKS:
            raise KeyError(
                f"unknown task type {task_type!r} (known: {sorted(TASKS)})"
            )
        result = TASKS[task_type](params)
        status, payload = "ok", result
    except Exception:
        status, payload = "error", traceback.format_exc(limit=20)
    finally:
        deactivate(obs_session)
    telemetry = {
        "wall_s": time.perf_counter() - t0,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "metrics": obs_session.merged_snapshot(),
    }
    if store is not None:
        # per-task checkpoint accounting: counter deltas this task
        # caused (hits/misses/build seconds), truthful under --resume
        after = store.counters()
        telemetry["checkpoint"] = {
            key: after[key] - ckpt_before[key] for key in after
        }
    return status, payload, telemetry


def _worker_main(worker_id: int, inbox, outbox, warm_dir: Optional[str] = None) -> None:
    # the parent owns interrupt handling: workers ignore SIGINT so a
    # Ctrl-C drains instead of killing in-flight tasks mid-simulation
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if warm_dir is not None:
        from repro.campaign.tasks import set_warm_store
        from repro.snapshot import CheckpointStore

        set_warm_store(CheckpointStore(warm_dir))
    while True:
        message = inbox.get()
        if message[0] == "stop":
            return
        _, key, task_type, params = message
        status, payload, telemetry = _execute(task_type, params)
        outbox.put((worker_id, key, status, payload, telemetry))


class _Worker:
    """A pool slot: process + its private inbox/outbox."""

    def __init__(self, ctx, worker_id: int, warm_dir: Optional[str] = None):
        self.id = worker_id
        self.warm_dir = warm_dir
        self.inbox = ctx.Queue()
        self.outbox = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.inbox, self.outbox, warm_dir),
            daemon=True,
        )
        self.process.start()
        self.task: Optional[TaskSpec] = None
        self.attempt = 0
        self.started_at = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def dispatch(self, task: TaskSpec, attempt: int) -> None:
        self.task = task
        self.attempt = attempt
        self.started_at = time.monotonic()
        self.inbox.put(("task", task.key, task.task_type, task.params))

    def poll(self):
        try:
            return self.outbox.get_nowait()
        except queue_mod.Empty:
            return None

    def stop(self, timeout: float = 2.0) -> None:
        """Ask the worker to exit; kill it if it has not within ``timeout``."""
        if self.process.is_alive():
            try:
                self.inbox.put(("stop",))
            except ValueError:
                pass
        self.process.join(timeout)
        self.kill()

    def kill(self) -> None:
        """Hard-stop a hung or doomed worker; its queues are discarded."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(1.0)
        self.inbox.close()
        self.outbox.close()


class CampaignRunner:
    """Execute a :class:`CampaignSpec` against a :class:`RunStore`."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: RunStore,
        options: Optional[RunnerOptions] = None,
        progress: Optional[ProgressReporter] = None,
    ):
        self.spec = spec
        self.store = store
        self.options = options or RunnerOptions()
        self.progress = progress
        self._drain = False
        self._abort = False
        self._completed = 0
        self._failed: List[str] = []
        #: warm-start state: cache dir (None = cold), task key ->
        #: bootstrap-prefix group, gating bookkeeping (see _run_pool)
        self._warm_dir = self.options.checkpoint_dir
        self._group_of: Dict[str, str] = {}
        self._group_open: set = set()
        self._group_leader: Dict[str, str] = {}
        self._ckpt_totals = {"hits": 0, "misses": 0, "build_seconds": 0.0}

    # --- public API -------------------------------------------------------

    def request_drain(self) -> None:
        """Stop dispatching; finish in-flight tasks, then return.
        (What the SIGINT handler calls; tests call it directly.)"""
        self._drain = True

    def run(self, resume: bool = False) -> Dict[str, Any]:
        """Run the campaign; returns (and persists) the run manifest."""
        tasks = self.spec.expand()
        previous = self.store.read_manifest()
        if resume and previous and previous.get("spec_hash") != self.spec.spec_hash():
            raise ValueError(
                f"refusing to resume: store at {self.store.root} was written "
                f"by campaign spec {previous.get('spec_hash')}, this spec is "
                f"{self.spec.spec_hash()}"
            )
        if not resume:
            backup = self.store.rotate()
            if backup and self.progress:
                self.progress.note(f"existing run moved to {backup.name}")
        done_before = self.store.completed() if resume else {}
        pending = [t for t in tasks if t.key not in done_before]
        if self.progress:
            self.progress.total = len(tasks)
            self.progress.done = len(done_before)
            self.progress.skipped(len(done_before))

        if self._warm_dir is not None:
            self._index_bootstrap_groups(pending)

        started = time.monotonic()
        previous_handler = signal.getsignal(signal.SIGINT)

        def on_sigint(signum, frame):
            if self._drain:
                self._abort = True
                raise KeyboardInterrupt
            self._drain = True
            if self.progress:
                self.progress.note(
                    "SIGINT: draining in-flight tasks "
                    "(interrupt again to abort hard)"
                )

        can_trap = True
        try:
            signal.signal(signal.SIGINT, on_sigint)
        except ValueError:  # non-main thread (tests)
            can_trap = False
        try:
            if self.options.jobs <= 1:
                inline_store = None
                if self._warm_dir is not None:
                    from repro.campaign.tasks import set_warm_store
                    from repro.snapshot import CheckpointStore

                    inline_store = CheckpointStore(self._warm_dir)
                    set_warm_store(inline_store)
                try:
                    self._run_inline(pending)
                finally:
                    if inline_store is not None:
                        set_warm_store(None)
            else:
                self._run_pool(pending)
        finally:
            if can_trap:
                signal.signal(signal.SIGINT, previous_handler)

        wall = time.monotonic() - started
        task_seconds = self.progress.busy_seconds if self.progress else 0.0
        manifest = {
            "campaign": self.spec.name,
            "task_type": self.spec.task_type,
            "spec_hash": self.spec.spec_hash(),
            "jobs": self.options.jobs,
            "resume": resume,
            "interrupted": self._drain,
            "total_tasks": len(tasks),
            "skipped_resumed": len(done_before),
            "completed_this_run": self._completed,
            "failed": sorted(self._failed),
            "wall_seconds": wall,
            "task_seconds": task_seconds,
            "parallel_speedup_est": (task_seconds / wall) if wall > 0 else 0.0,
            "utilization": (self.progress.utilization() if self.progress else None),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "warm_start": self._warm_dir is not None,
            "checkpoint_dir": self._warm_dir,
            "checkpoint_hits": self._ckpt_totals["hits"],
            "checkpoint_misses": self._ckpt_totals["misses"],
            "checkpoint_build_seconds": self._ckpt_totals["build_seconds"],
            "checkpoint_saved_seconds_est": self._ckpt_saved_estimate(),
        }
        self.store.write_manifest(manifest)
        return manifest

    # --- warm-start bookkeeping -------------------------------------------

    def _index_bootstrap_groups(self, pending: List[TaskSpec]) -> None:
        """Map each pending task to its bootstrap-prefix group (the
        checkpoint key of its bootstrap spec) so the pool can gate
        group members behind one leader build."""
        from repro.campaign.tasks import BOOTSTRAP_SPECS
        from repro.snapshot import checkpoint_key

        for task in pending:
            spec_of = BOOTSTRAP_SPECS.get(task.task_type)
            if spec_of is None:
                continue  # no warm-startable bootstrap
            try:
                spec = spec_of(task.params)
            except Exception:
                continue  # malformed params fail inside the task instead
            self._group_of[task.key] = checkpoint_key(spec)
        if self.progress and self._group_of:
            groups = len(set(self._group_of.values()))
            self.progress.note(
                f"warm-start: {len(self._group_of)} task(s) share "
                f"{groups} bootstrap checkpoint(s) ({self._warm_dir})"
            )

    def _ckpt_saved_estimate(self) -> float:
        """Wall-seconds the cache saved this run: hits × mean observed
        build cost (0.0 when nothing was built to calibrate against)."""
        if self._ckpt_totals["misses"] == 0:
            return 0.0
        mean_build = (
            self._ckpt_totals["build_seconds"] / self._ckpt_totals["misses"]
        )
        return self._ckpt_totals["hits"] * mean_build

    # --- record keeping ---------------------------------------------------

    def _record(
        self,
        task: TaskSpec,
        status: str,
        payload: Any,
        telemetry: Dict[str, Any],
        attempt: int,
        worker: int,
    ) -> None:
        checkpoint = telemetry.get("checkpoint")
        record = {
            "key": task.key,
            "task": task.task_type,
            "params": task.params,
            "status": status,
            "result": payload if status == "ok" else None,
            "error": None if status == "ok" else str(payload),
            "attempts": attempt + 1,
            "wall_s": telemetry.get("wall_s", 0.0),
            "max_rss_kb": telemetry.get("max_rss_kb", 0),
            "metrics": telemetry.get("metrics"),
            "worker": worker,
        }
        if checkpoint is not None:
            record["checkpoint"] = checkpoint
            for key in self._ckpt_totals:
                self._ckpt_totals[key] += checkpoint.get(key, 0)
        self.store.append(record)
        if status == "ok":
            self._completed += 1
        else:
            self._failed.append(task.key)
        # the task's bootstrap checkpoint now exists (or its build
        # definitively failed): release any gated group members
        group = self._group_of.get(task.key)
        if group is not None:
            self._group_open.add(group)
            self._group_leader.pop(group, None)
        if self.progress:
            # the kwarg only travels on warm-start runs: cold runs keep
            # working with duck-typed reporters that predate it
            kwargs = {"checkpoint": checkpoint} if checkpoint is not None else {}
            self.progress.task_done(
                task.label(), status, telemetry.get("wall_s", 0.0), **kwargs
            )

    def _retry_or_fail(
        self,
        task: TaskSpec,
        attempt: int,
        status: str,
        detail: str,
        worker_id: int,
        delayed: List[Tuple[float, int, TaskSpec]],
    ) -> None:
        if attempt < self.options.max_retries:
            delay = self.options.retry_backoff * (2 ** attempt)
            delayed.append((time.monotonic() + delay, attempt + 1, task))
            if self.progress:
                self.progress.note(
                    f"{task.label()}: {status} "
                    f"(attempt {attempt + 1}, retrying in {delay:.1f}s)"
                )
        else:
            self._record(task, status, detail, {}, attempt, worker_id)

    # --- serial path ------------------------------------------------------

    def _run_inline(self, pending: List[TaskSpec]) -> None:
        """``--jobs 1``: same execution function, no worker processes.
        Crash-level faults obviously can't be survived inline; task
        exceptions still retry with backoff."""
        delayed: List[Tuple[float, int, TaskSpec]] = []
        ready: List[Tuple[int, TaskSpec]] = [(0, t) for t in pending]
        while (ready or delayed) and not self._drain:
            if not ready:
                wake, attempt, task = min(delayed, key=lambda x: x[0])
                delayed.remove((wake, attempt, task))
                time.sleep(max(0.0, wake - time.monotonic()))
                ready.append((attempt, task))
            attempt, task = ready.pop(0)
            status, payload, telemetry = _execute(task.task_type, task.params)
            if status == "ok":
                self._record(task, status, payload, telemetry, attempt, 0)
            else:
                self._retry_or_fail(task, attempt, status, payload, 0, delayed)

    # --- pool path --------------------------------------------------------

    def _dispatchable(self, task: TaskSpec) -> bool:
        """False while the task's bootstrap group is gated behind an
        in-flight leader: the leader's build will land the shared
        checkpoint, so members dispatched later all hit the cache
        instead of racing N duplicate builds across the pool."""
        group = self._group_of.get(task.key)
        if group is None or group in self._group_open:
            return True
        leader = self._group_leader.get(group)
        return leader is None or leader == task.key

    def _take_dispatchable(
        self, ready: List[Tuple[int, TaskSpec]]
    ) -> Optional[Tuple[int, TaskSpec]]:
        for index, (attempt, task) in enumerate(ready):
            if self._dispatchable(task):
                group = self._group_of.get(task.key)
                if group is not None and group not in self._group_open:
                    self._group_leader[group] = task.key
                return ready.pop(index)
        return None

    def _run_pool(self, pending: List[TaskSpec]) -> None:
        ctx = mp.get_context(_MP_CONTEXT)
        jobs = min(self.options.jobs, max(len(pending), 1))
        workers = [_Worker(ctx, i, self._warm_dir) for i in range(jobs)]
        ready: List[Tuple[int, TaskSpec]] = [(0, t) for t in pending]
        delayed: List[Tuple[float, int, TaskSpec]] = []
        try:
            while True:
                now = time.monotonic()
                for entry in list(delayed):
                    if entry[0] <= now:
                        delayed.remove(entry)
                        ready.append((entry[1], entry[2]))
                if not self._drain:
                    for worker in workers:
                        if ready and not worker.busy:
                            item = self._take_dispatchable(ready)
                            if item is None:
                                break
                            attempt, task = item
                            worker.dispatch(task, attempt)
                idle = not any(w.busy for w in workers)
                if idle and (self._drain or (not ready and not delayed)):
                    break
                progressed = False
                for i, worker in enumerate(workers):
                    message = worker.poll()
                    if message is not None and worker.busy:
                        _, key, status, payload, telemetry = message
                        task, attempt = worker.task, worker.attempt
                        worker.task = None
                        progressed = True
                        if status == "ok":
                            self._record(
                                task, status, payload, telemetry, attempt, worker.id
                            )
                        else:
                            self._retry_or_fail(
                                task, attempt, status, payload, worker.id, delayed
                            )
                        continue
                    if not worker.busy:
                        continue
                    if not worker.process.is_alive():
                        # crashed mid-task (poll() above already drained
                        # any result it managed to deliver)
                        status = "crashed"
                        detail = f"worker exited with code {worker.process.exitcode}"
                    elif (
                        self.options.task_timeout is not None
                        and now - worker.started_at > self.options.task_timeout
                    ):
                        status = "timeout"
                        detail = f"exceeded task_timeout={self.options.task_timeout}s"
                    else:
                        continue
                    task, attempt = worker.task, worker.attempt
                    worker.kill()
                    workers[i] = _Worker(ctx, worker.id, self._warm_dir)
                    progressed = True
                    self._retry_or_fail(
                        task, attempt, status, detail, worker.id, delayed
                    )
                if not progressed:
                    time.sleep(_POLL_INTERVAL)
        finally:
            for worker in workers:
                worker.stop()


def run_in_memory(
    spec: CampaignSpec,
    jobs: int = 1,
    progress: Optional[ProgressReporter] = None,
) -> List[Dict[str, Any]]:
    """Run ``spec`` on ``jobs`` workers in a throwaway store and return
    its task records in the spec's task order.  No retries: the first
    failed task raises :class:`RuntimeError` with its traceback.  The
    seam for a script that wants a grid's results, not a resumable run
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        manifest = CampaignRunner(
            spec, store, RunnerOptions(jobs=jobs, max_retries=0), progress
        ).run()
        latest = {record["key"]: record for record in store.records()}
    if manifest["interrupted"]:
        raise KeyboardInterrupt
    records = [latest[task.key] for task in spec.expand()]
    for record in records:
        if record["status"] != "ok":
            raise RuntimeError(
                f"{record['task']} task {record['key']} failed:\n"
                f"{record['error']}"
            )
    return records
