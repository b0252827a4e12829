"""The per-network observability hub.

An :class:`Observability` bundles an optional :class:`MetricsRegistry`
and an optional :class:`TimelineTracer` and hangs off
``Network.obs``.  Instrumentation sites in the protocol stack guard
with::

    obs = self._net.obs
    if obs is not None and obs.active:
        obs.event(now, "peerview", "probe.sent", self._actor, dst=address)

so the production default (``obs is None``) costs one attribute load
and an ``is`` check, and an attached-but-disabled hub adds only the
``active`` flag read.  Recording never draws RNG, never schedules
events and never mutates protocol state — the determinism suite pins
that enabled and disabled runs are byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import TimelineTracer


def _payload_type_name(payload: Any) -> str:
    # endpoint messages wrap the interesting protocol body
    body = getattr(payload, "body", None)
    if body is not None:
        return type(body).__name__
    return type(payload).__name__


class Observability:
    """Metrics + tracer attached to one :class:`repro.network.Network`."""

    __slots__ = ("metrics", "tracer", "active", "network", "_trace_kernel",
                 "_send_keys")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[TimelineTracer] = None,
        enabled: bool = True,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.active = enabled and (metrics is not None or tracer is not None)
        self.network = None
        self._trace_kernel = False
        #: site pair -> its ``("endpoint", "send.A->B")`` counter key
        self._send_keys: Dict[Any, Any] = {}

    # ------------------------------------------------------------------
    def attach(self, network, trace_kernel: bool = False) -> "Observability":
        """Make this hub ``network.obs``; optionally feed kernel fires
        into the tracer."""
        if network.obs is not None:
            raise RuntimeError("network already has an observability hub")
        network.obs = self
        self.network = network
        if trace_kernel and self.tracer is not None:
            network.sim.add_trace_hook(self.tracer.on_kernel_event, phases=("fire",))
            self._trace_kernel = True
        return self

    def detach(self) -> None:
        if self.network is None:
            return
        if self._trace_kernel and self.tracer is not None:
            self.network.sim.remove_trace_hook(
                self.tracer.on_kernel_event, phases=("fire",)
            )
            self._trace_kernel = False
        self.network.obs = None
        self.network = None

    def enable(self) -> None:
        self.active = self.metrics is not None or self.tracer is not None

    def disable(self) -> None:
        self.active = False

    # -------------------------------------------------------- hot path
    def event(
        self, t: float, protocol: str, name: str, actor: str = "", **args: Any
    ) -> None:
        """Count ``protocol.name`` and record a timeline event."""
        metrics = self.metrics
        if metrics is not None:
            key = (protocol, name)
            counters = metrics.counters
            counters[key] = counters.get(key, 0) + 1
        tracer = self.tracer
        if tracer is not None:
            tracer.record(t, protocol, name, actor, args or None)

    def observe(self, protocol: str, name: str, value: float) -> None:
        """Record ``value`` into the ``protocol.name`` histogram."""
        metrics = self.metrics
        if metrics is not None:
            metrics.observe(protocol, name, value)

    def on_network_send(
        self,
        now: float,
        site_pair,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: int,
        delay: float,
        lost: bool,
    ) -> None:
        """Called from :meth:`Network.send` after the delay/loss verdict."""
        metrics = self.metrics
        if metrics is not None:
            counters = metrics.counters
            key = ("endpoint", "send")
            counters[key] = counters.get(key, 0) + 1
            key = self._send_keys.get(site_pair)
            if key is None:
                key = self._send_keys[site_pair] = (
                    "endpoint", f"send.{site_pair[0]}->{site_pair[1]}"
                )
            counters[key] = counters.get(key, 0) + 1
            if lost:
                key = ("endpoint", "drop")
                counters[key] = counters.get(key, 0) + 1
            else:
                metrics.observe("endpoint", "delay", delay)
        tracer = self.tracer
        if tracer is not None:
            args: Dict[str, Any] = {
                "dst": dst,
                "size": size_bytes,
                "type": _payload_type_name(payload),
            }
            if lost:
                args["lost"] = True
            tracer.record(now, "endpoint", "send", src, args)


def enable_observability(
    network,
    metrics: bool = True,
    trace: bool = False,
    trace_kernel: bool = False,
    trace_capacity: Optional[int] = None,
    categories=None,
) -> Observability:
    """Convenience: build a hub and attach it to ``network``."""
    tracer = None
    if trace:
        if trace_capacity is not None:
            tracer = TimelineTracer(capacity=trace_capacity, categories=categories)
        else:
            tracer = TimelineTracer(categories=categories)
    obs = Observability(
        metrics=MetricsRegistry() if metrics else None, tracer=tracer
    )
    return obs.attach(network, trace_kernel=trace_kernel)
