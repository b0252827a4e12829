"""Declarative workload specifications and the engine that runs them.

A :class:`WorkloadSpec` is a JSON-able bundle — catalog spec, arrival
spec, client population, SLO/timeout budgets, timeline — consumed by
``jxta-repro load``, the ``load`` campaign task, and the benchmarks.

A :class:`WorkloadEngine` wires the spec onto a deployed overlay's
edge peers (one open-loop client per edge: publishers first, then
queriers), seeds the catalog during warm-up, runs the measured window,
and exposes the SLO tracker plus an optional trace recorder.
:meth:`WorkloadEngine.start_replay` re-drives a recorded trace instead
of generating traffic — the regression-oracle path (see
docs/WORKLOADS.md for the replay contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.sim import HOURS, MINUTES
from repro.workload.arrivals import make_arrivals
from repro.workload.catalog import Catalog, publish_catalog
from repro.workload.clients import (
    OpenLoopPublisher,
    OpenLoopQuerier,
    issue_query,
)
from repro.workload.slo import SloTracker
from repro.workload.trace import TraceOp, WorkloadTraceRecorder


@dataclass
class WorkloadSpec:
    """Everything that defines one workload, JSON-able."""

    name: str = "load"
    #: measured window, simulated seconds (clients run warmup..warmup+duration)
    duration: float = 10 * MINUTES
    #: overlay warm-up before clients start (peerviews converge, the
    #: catalog is seeded and SRDI-replicated)
    warmup: float = 8 * MINUTES
    catalog: Dict[str, Any] = field(
        default_factory=lambda: {"popularity": "zipf", "size": 200, "skew": 1.0}
    )
    #: per-client arrival process (see :func:`make_arrivals`)
    arrivals: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "poisson", "rate": 2.0}
    )
    queriers: int = 8
    publishers: int = 2
    #: per-query timeout, seconds
    timeout: float = 10.0
    publish_expiration: float = 12 * HOURS
    #: when to burst-publish the whole catalog (simulated s; must leave
    #: time for leases before and SRDI propagation after)
    seed_time: float = 2 * MINUTES

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if not 0 <= self.seed_time <= self.warmup:
            raise ValueError("seed_time must lie inside the warm-up")
        if self.queriers < 0 or self.publishers < 0:
            raise ValueError("client counts must be >= 0")
        if self.queriers + self.publishers < 1:
            raise ValueError("workload needs at least one client")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        # fail early on malformed nested specs
        make_arrivals(self.arrivals)
        Catalog.from_spec(self.catalog)

    # ------------------------------------------------------------------
    @property
    def client_count(self) -> int:
        return self.queriers + self.publishers

    @property
    def horizon(self) -> float:
        """End of the measured window (simulated seconds)."""
        return self.warmup + self.duration

    def expected_requests(self) -> float:
        """Request volume the spec is sized for (mean)."""
        rate = make_arrivals(self.arrivals).rate
        return rate * self.duration * self.client_count


class WorkloadEngine:
    """A spec, instantiated against a deployed overlay's edges."""

    def __init__(
        self,
        spec: WorkloadSpec,
        sim,
        edges: Sequence,
        slo: Optional[SloTracker] = None,
        recorder: Optional[WorkloadTraceRecorder] = None,
    ) -> None:
        if len(edges) < spec.client_count:
            raise ValueError(
                f"workload {spec.name!r} needs {spec.client_count} edge "
                f"peer(s), overlay provides {len(edges)}"
            )
        self.spec = spec
        self.sim = sim
        self.slo = slo if slo is not None else SloTracker()
        self.recorder = recorder
        self.catalog = Catalog.from_spec(spec.catalog)
        arrivals = make_arrivals(spec.arrivals)

        pubs = spec.publishers
        self.clients: List[Any] = [
            OpenLoopPublisher(
                sim, edges[i], spec.name, f"pub-{i}", self.catalog,
                arrivals, self.slo, recorder,
                expiration=spec.publish_expiration,
            )
            for i in range(pubs)
        ] + [
            OpenLoopQuerier(
                sim, edges[pubs + i], spec.name, f"query-{i}", self.catalog,
                arrivals, self.slo, recorder, timeout=spec.timeout,
            )
            for i in range(spec.queriers)
        ]
        self._by_name = {client.name: client for client in self.clients}
        #: edges used to seed the catalog (the publishers; all clients
        #: if the population has none)
        self._seed_edges = list(edges[: pubs or spec.client_count])

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule catalog seeding (at ``seed_time``) and every
        client's traffic (warmup..horizon).  Call before ``sim.run``."""
        spec = self.spec
        delay = spec.seed_time - self.sim.now
        if delay < 0:
            raise RuntimeError(
                f"engine started at t={self.sim.now}, after seed_time"
            )
        self.sim.schedule(delay, self._seed_catalog, label="workload.seed")
        for client in self.clients:
            client.start(spec.warmup, spec.horizon)

    def _seed_catalog(self) -> None:
        """Burst-publish the whole catalog over the publisher edges so
        queries have something to find once SRDI propagates."""
        self._record_seed_ops(self.sim.now)
        publish_catalog(self._seed_edges, self.catalog, self.spec.publish_expiration)
        self.slo.record_success(self.spec.name, "seed")

    def _record_seed_ops(self, t: float) -> None:
        """Trace the seed burst: one ``seed-{i}`` publish record per
        item, in :func:`~repro.workload.catalog.publish_catalog`'s
        contiguous-block partition order."""
        if self.recorder is None:
            return
        edges = self._seed_edges
        n = len(self.catalog)
        per_edge = -(-n // len(edges))
        for i in range(len(edges)):
            for k in range(i * per_edge, min((i + 1) * per_edge, n)):
                self.recorder.record(
                    t, f"seed-{i}", "publish", self.catalog.names[k]
                )

    def start_warm(self) -> None:
        """Start against an overlay whose bootstrap already published
        the catalog at ``seed_time`` (see :func:`repro.experiments
        .load_exp.run_load`).  Reconstructs exactly what the seed event
        of :meth:`start` would have contributed to this engine's trace
        and SLO — records stamped at ``seed_time``, one ``seed``
        success — then starts every client; the run's trace bytes and
        SLO snapshot come out byte-identical to a :meth:`start` run
        (pinned by the warm-start test suites)."""
        spec = self.spec
        if self.sim.now > spec.warmup:
            raise RuntimeError(
                f"engine warm-started at t={self.sim.now}, after "
                f"warmup={spec.warmup}"
            )
        if self.sim.now < spec.seed_time:
            raise RuntimeError(
                f"engine warm-started at t={self.sim.now}, before "
                f"seed_time={spec.seed_time}: the checkpoint does not "
                "contain the seeded catalog"
            )
        self._record_seed_ops(spec.seed_time)
        self.slo.record_success(spec.name, "seed")
        for client in self.clients:
            client.start(spec.warmup, spec.horizon)

    def stop(self) -> None:
        for client in self.clients:
            client.stop()

    # ------------------------------------------------------------------
    # trace replay
    # ------------------------------------------------------------------
    def start_replay(self, ops: Sequence[TraceOp]) -> int:
        """Re-drive the *issue* ops of a recorded trace.

        Each op is scheduled at its recorded time against the client it
        was recorded from (``seed-*`` ops go to the seeding edges);
        nothing is drawn from the workload RNG streams, and every client
        is open loop (no issue waits on an outcome), so on the same
        overlay seed the replayed run of any spec reproduces the
        original completions, SLO snapshot and trace bytes exactly (see
        docs/WORKLOADS.md).  Returns the number of scheduled ops.  Call
        before ``sim.run``, instead of :meth:`start`.
        """
        now = self.sim.now
        scheduled = 0
        self._seed_clients: Dict[str, _SeedReplayClient] = {}
        self._seed_pending = 0
        for op in ops:
            if op.op == "publish":
                client = self._replay_client(op.client)
                if isinstance(client, _SeedReplayClient):
                    self._seed_pending += 1
                self.sim.schedule(
                    op.t - now, self._replay_publish, client, op.item,
                    label="workload.replay",
                )
                scheduled += 1
            elif op.op == "query":
                client = self._replay_client(op.client)
                self.sim.schedule(
                    op.t - now, self._replay_query, client, op.item,
                    label="workload.replay",
                )
                scheduled += 1
            # outcome ops are regenerated by the run itself
        return scheduled

    def _replay_client(self, name: str):
        if name.startswith("seed-"):
            client = self._seed_clients.get(name)
            if client is None:
                index = int(name.split("-", 1)[1])
                client = self._seed_clients[name] = _SeedReplayClient(
                    self.sim, self._seed_edges[index], self.spec.name, name,
                    self.catalog, self.slo, self.recorder,
                )
            return client
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(
                f"trace client {name!r} unknown to this spec "
                f"(known: {sorted(self._by_name)})"
            ) from None

    def _replay_publish(self, client, item: str) -> None:
        client._trace("publish", item)
        client.edge.discovery.publish(
            self.catalog.adv_named(item),
            expiration=self.spec.publish_expiration,
        )
        if isinstance(client, _SeedReplayClient):
            # the live run records one "seed" success for the whole
            # burst; replay does the same once the burst drains
            self._seed_pending -= 1
            if self._seed_pending == 0:
                self.slo.record_success(self.spec.name, "seed")
        else:
            self.slo.record_success(self.spec.name, "publish")

    def _replay_query(self, client, item: str) -> None:
        issue_query(client, item, self.spec.timeout)


class _SeedReplayClient:
    """Stand-in client for replayed ``seed-*`` publish ops."""

    def __init__(self, sim, edge, workload, name, catalog, slo, recorder):
        self.sim = sim
        self.edge = edge
        self.workload = workload
        self.name = name
        self.catalog = catalog
        self.slo = slo
        self.recorder = recorder

    def _trace(self, op, item, latency=None):
        if self.recorder is not None:
            self.recorder.record(self.sim.now, self.name, op, item, latency)
