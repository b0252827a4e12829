"""Client populations: who issues the traffic.

Three client kinds, all attached to an :class:`~repro.peergroup.peer
.EdgePeer` and driven by the simulator:

* :class:`OpenLoopPublisher` — publishes catalog advertisements on an
  arrival schedule, regardless of how the system keeps up;
* :class:`OpenLoopQuerier` — issues discovery queries on an arrival
  schedule (the load-generator used by ``jxta-repro load``);
* :class:`ClosedLoopClient` — think-time loop with a per-request
  timeout/retry/backoff budget: a new request only starts after the
  previous one resolved, as a human-driven client would.

RNG discipline: each client owns exactly one named stream,
``workload.<workload>.<client>``, from which it draws arrival gaps,
item choices and think times — so schedules are byte-reproducible per
seed and independent of every other component (adding a client never
changes another client's schedule, nor any protocol draw).

Every operation is recorded into the shared
:class:`~repro.workload.slo.SloTracker` and (optionally) a
:class:`~repro.workload.trace.WorkloadTraceRecorder`; when the peer's
network has an active observability hub, per-request latencies also
land in its ``(workload, <name>.latency)`` histogram.
"""

from __future__ import annotations

from typing import Optional

from repro.advertisement.testadv import FakeAdvertisement
from repro.workload.arrivals import ArrivalProcess
from repro.workload.catalog import Catalog
from repro.workload.slo import SloTracker
from repro.workload.trace import WorkloadTraceRecorder


class _ClientBase:
    """Shared plumbing: stream binding, SLO/trace/obs recording."""

    def __init__(
        self,
        sim,
        edge,
        workload: str,
        name: str,
        catalog: Catalog,
        slo: SloTracker,
        recorder: Optional[WorkloadTraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.edge = edge
        #: the edge's primary-group discovery service, read once: a
        #: peer's primary context never changes, and ``edge.discovery``
        #: is two property frames and a group-ID hash per operation
        self.discovery = edge.discovery
        self.workload = workload
        self.name = name
        self.catalog = catalog
        self.slo = slo
        self.recorder = recorder
        self.rng = sim.rng.stream(f"workload.{workload}.{name}")
        self._stopped = False

    def stop(self) -> None:
        """Stop issuing new operations (in-flight ones still resolve)."""
        self._stopped = True

    # ------------------------------------------------------------------
    def _trace(self, op: str, item: str, latency: Optional[float] = None) -> None:
        if self.recorder is not None:
            self.recorder.record(self.sim.now, self.name, op, item, latency)


class OpenLoopPublisher(_ClientBase):
    """Publishes catalog items on an arrival schedule.

    ``mode="cycle"`` walks the catalog round-robin; ``mode="sample"``
    draws items by popularity (hot items are re-published more often,
    as real services re-announce).  Re-publishing refreshes the edge's
    *cache entry* only: the item's SRDI tuple is pushed once per
    rendezvous (``SrdiPusher._pushed``), so its index record is never
    renewed before its expiration (ROADMAP item 3 (SRDI refresh)).  A
    re-publish of the catalog's shared document over a live copy does
    not even enter the cache's journal, so the pusher's next tick costs
    nothing for it; a first publication is journaled and read by that
    tick alone, whatever the size of the catalog the edge holds.  The
    tuples one push carries — first publications today, re-published
    ones once item 3 lands — share that push's index record
    (``SrdiIndex.add``).
    """

    def __init__(
        self,
        sim,
        edge,
        workload: str,
        name: str,
        catalog: Catalog,
        arrivals: ArrivalProcess,
        slo: SloTracker,
        recorder: Optional[WorkloadTraceRecorder] = None,
        expiration: float = 12 * 3600.0,
        mode: str = "cycle",
    ) -> None:
        if mode not in ("cycle", "sample"):
            raise ValueError(f"unknown publisher mode {mode!r}")
        super().__init__(sim, edge, workload, name, catalog, slo, recorder)
        self.arrivals = arrivals
        self.expiration = expiration
        self.mode = mode
        self._cursor = 0
        self._times = None

    def start(self, start: float, horizon: float) -> None:
        self._times = self.arrivals.iter_times(self.rng, start, horizon)
        self._schedule_next()

    def _schedule_next(self) -> None:
        t = next(self._times, None)
        if t is None or self._stopped:
            return
        self.sim.schedule(
            t - self.sim.now, self._fire, label="workload.publish"
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        if self.mode == "cycle":
            index = self._cursor % len(self.catalog)
            self._cursor += 1
        else:
            index = self.catalog.sample(self.rng)
        item = self.catalog.names[index]
        self._trace("publish", item)
        self.discovery.publish(
            self.catalog.adv(index), expiration=self.expiration
        )
        self.slo.record_success(self.workload, "publish")
        self._schedule_next()


class OpenLoopQuerier(_ClientBase):
    """Issues discovery queries on an arrival schedule (open loop:
    arrivals never wait for completions, so queueing shows up as
    latency, exactly what an SLO should see)."""

    def __init__(
        self,
        sim,
        edge,
        workload: str,
        name: str,
        catalog: Catalog,
        arrivals: ArrivalProcess,
        slo: SloTracker,
        recorder: Optional[WorkloadTraceRecorder] = None,
        timeout: float = 10.0,
    ) -> None:
        super().__init__(sim, edge, workload, name, catalog, slo, recorder)
        self.arrivals = arrivals
        self.timeout = timeout
        self._times = None

    def start(self, start: float, horizon: float) -> None:
        self._times = self.arrivals.iter_times(self.rng, start, horizon)
        self._schedule_next()

    def _schedule_next(self) -> None:
        t = next(self._times, None)
        if t is None or self._stopped:
            return
        # the clock read without two property frames: once per query
        self.sim.schedule(
            t - self.sim.clock._now, self._fire, label="workload.query"
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        item = self.catalog.sample_name(self.rng)
        issue_query(self, item, self.timeout)
        self._schedule_next()


def issue_query(client: _ClientBase, item: str, timeout: float) -> None:
    """Issue one open-loop query and route its outcome into the SLO
    tracker and the trace (shared by live clients and trace replay).
    Every flat lookup runs this and ``on_result``, so ``_trace`` is
    called only when there is a recorder, and the latency observation
    is inline."""
    if client.recorder is not None:
        client._trace("query", item)

    def on_result(_advs, latency, _c=client, _item=item):
        _c.slo.record_success(_c.workload, "query", latency)
        obs = _c.edge.network.obs
        if obs is not None and obs.active:
            obs.observe("workload", f"{_c.workload}.query.latency", latency)
        if _c.recorder is not None:
            _c._trace("query.ok", _item, latency)

    def on_timeout(_c=client, _item=item):
        _c.slo.record_timeout(_c.workload, "query")
        if _c.recorder is not None:
            _c._trace("query.timeout", _item)

    client.discovery.get_remote_advertisements(
        FakeAdvertisement.ADV_TYPE, "Name", item,
        callback=on_result,
        on_timeout=on_timeout,
        timeout=timeout,
    )


class ClosedLoopClient(_ClientBase):
    """Think-time loop with a timeout/retry/backoff budget.

    Each cycle: think (exponential, mean ``think_mean``), issue a
    query; a timeout retries after exponential backoff
    (``backoff_base · backoff_factor^attempt``) up to ``retries``
    times, after which the request counts as a *failure*.  Success
    latency is end-to-end: first attempt issue → final completion,
    retries and backoffs included (what the user of a discovery
    service actually waits).
    """

    def __init__(
        self,
        sim,
        edge,
        workload: str,
        name: str,
        catalog: Catalog,
        slo: SloTracker,
        recorder: Optional[WorkloadTraceRecorder] = None,
        think_mean: float = 1.0,
        timeout: float = 5.0,
        retries: int = 2,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
    ) -> None:
        if think_mean <= 0:
            raise ValueError("think_mean must be > 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        super().__init__(sim, edge, workload, name, catalog, slo, recorder)
        self.think_mean = think_mean
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self._horizon = float("inf")
        #: completed request cycles (success + failure), for tests
        self.completed = 0

    def start(self, start: float, horizon: float) -> None:
        self._horizon = horizon
        delay = max(0.0, start - self.sim.now) + self.rng.expovariate(
            1.0 / self.think_mean
        )
        self.sim.schedule(delay, self._begin_request, label="workload.think")

    def _begin_request(self) -> None:
        if self._stopped or self.sim.now > self._horizon:
            return
        item = self.catalog.sample_name(self.rng)
        self._attempt(item, attempt=0, first_sent=self.sim.now)

    def _attempt(self, item: str, attempt: int, first_sent: float) -> None:
        if self._stopped:
            return
        self._trace("query", item)

        def on_result(_advs, _latency, _item=item, _t0=first_sent):
            latency = self.sim.now - _t0
            self.completed += 1
            self.slo.record_success(self.workload, "query", latency)
            obs = self.edge.network.obs
            if obs is not None and obs.active:
                obs.observe("workload", f"{self.workload}.query.latency", latency)
            self._trace("query.ok", _item, self.sim.now - _t0)
            self._think_again()

        def on_timeout(_item=item, _n=attempt, _t0=first_sent):
            if self._stopped:
                return
            if _n < self.retries:
                self.slo.record_retry(self.workload, "query")
                backoff = self.backoff_base * (self.backoff_factor ** _n)
                self.sim.schedule(
                    backoff, self._attempt, _item, _n + 1, _t0,
                    label="workload.backoff",
                )
            else:
                self.completed += 1
                self.slo.record_failure(self.workload, "query")
                self._trace("query.failure", _item)
                self._think_again()

        self.discovery.get_remote_advertisements(
            FakeAdvertisement.ADV_TYPE, "Name", item,
            callback=on_result,
            on_timeout=on_timeout,
            timeout=self.timeout,
        )

    def _think_again(self) -> None:
        if self._stopped or self.sim.now > self._horizon:
            return
        self.sim.schedule(
            self.rng.expovariate(1.0 / self.think_mean),
            self._begin_request,
            label="workload.think",
        )
