"""Spans at the layer boundaries, recorded from outside ``src/repro``.

Nothing in ``src/`` knows about this module.  :func:`install` patches
the public functions that cross a layer boundary — down-calls
(``Network.send``, ``ResolverService.send_query``, ...) at class level,
up-calls where they are registered (``Network.attach``,
``EndpointService.add_listener``, ``ResolverService.register_handler``)
— and timer-driven entry comes from the kernel's own ``fire``/``done``
trace hook, attributed by the event label's prefix.

Each span is (name, start, end, parent) in four parallel arrays that
live in memory until the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans
(:func:`self_times`).  Recording draws no random number and schedules
no event, so a traced run fires the same events as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from bench.catalog import LAYERS

#: Kernel event label prefix (up to the first ``.`` or ``:``) -> layer.
LABEL_LAYERS: Dict[str, str] = {
    "net": "network",
    "peerview": "rendezvous",
    "lease": "rendezvous",
    "discovery": "discovery",
    "srdi": "discovery",
    "srdi-gc": "discovery",
    "workload": "workload",
    "fault": "faults",
    "churn": "faults",
}

#: Down-calls patched on their class: (module, class, methods, layer).
CLASS_SPANS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.network.transport", "Network", ("send",), "network"),
    ("repro.endpoint.service", "EndpointService",
     ("send_direct", "send_to_peer"), "endpoint"),
    ("repro.resolver.service", "ResolverService",
     ("send_query", "forward_query", "send_response", "send_srdi"),
     "resolver"),
    ("repro.discovery.service", "DiscoveryService",
     ("publish", "get_remote_advertisements"), "discovery"),
    ("repro.discovery.srdi", "SrdiIndex", ("add", "lookup"), "discovery"),
    ("repro.rendezvous.peerview", "PeerView",
     ("upsert", "expire", "ordered_ids", "random_referrals"), "rendezvous"),
    ("repro.advertisement.cache", "AdvertisementCache",
     ("publish", "search", "store_remote"), "advertisement"),
    ("repro.faults.engine", "NetworkFaultController", ("intercept",),
     "faults"),
    ("repro.faults.invariants", "InvariantChecker",
     ("check_peer", "check_all"), "faults"),
    ("repro.fuzz.engine", "FuzzEngine", ("run",), "fuzz"),
)

#: Module-level functions, patched in every ``repro`` module that
#: imported them by name: (defining module, function, layer).
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.snapshot.core", "snapshot_network", "snapshot"),
    ("repro.snapshot.core", "restore_network", "snapshot"),
    ("repro.fuzz.runner", "check_case", "fuzz"),
)

#: The tracer the registration-point stand-ins report to.  They must be
#: picklable (the fuzzer snapshots whole networks, handlers included),
#: so they cannot close over a tracer and find it here instead.
_active: Optional["Tracer"] = None


def layer_of_label(label: str) -> str:
    for i, ch in enumerate(label):
        if ch == "." or ch == ":":
            return LABEL_LAYERS.get(label[:i], "other")
    return LABEL_LAYERS.get(label, "other")


def layer_of(obj: Any) -> str:
    """Layer of a registered callable or handler: its defining
    ``repro.<package>``."""
    module = getattr(obj, "__module__", None) or type(obj).__module__
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """In-memory span store with an open-span stack."""

    def __init__(self) -> None:
        #: spans are recorded only while this is set; the patches stay
        #: installed but cost one attribute test
        self.on = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._label_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._event = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        stack = self._stack
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def on_event(self, now: float, phase: str, handle: Any) -> None:
        """Kernel trace hook: one span per fired event."""
        if phase == "fire":
            label = handle.label
            nid = self._label_ids.get(label)
            if nid is None:
                nid = self._label_ids[label] = self.name_id(
                    f"{layer_of_label(label)}:event"
                )
            self._event = self.begin(nid)
        else:
            self.finish(self._event)

    def __len__(self) -> int:
        return len(self.name)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name, dtype=np.intc),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.intc),
        )

    def save(self, path: str) -> None:
        name, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start,
            end=end, parent=parent,
        )


def self_times(
    name: np.ndarray, start: np.ndarray, end: np.ndarray,
    parent: np.ndarray, n_names: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per span name: (summed self time, span count).  A span's self
    time is its duration minus the durations of its direct children."""
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent],
        minlength=len(duration),
    )
    own = duration - covered
    return (
        np.bincount(name, weights=own, minlength=n_names),
        np.bincount(name, minlength=n_names),
    )


@dataclass
class Summary:
    """What the spans of a run add up to."""

    #: self seconds and span count per layer; spans of a package that
    #: is not a layer are under ``other``
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    by_name: Dict[str, int] = field(default_factory=dict)
    #: summed duration of the spans that have no parent
    root_s: float = 0.0
    #: fired kernel events seen by the fire/done hook
    events: int = 0


def summarize(tracer: Tracer) -> Summary:
    out = Summary()
    if not len(tracer):
        return out
    name, start, end, parent = tracer.arrays()
    own, count = self_times(name, start, end, parent, len(tracer.names))
    for nid, span_name in enumerate(tracer.names):
        layer, what = span_name.split(":", 1)
        out.self_s[layer] = out.self_s.get(layer, 0.0) + float(own[nid])
        out.calls[layer] = out.calls.get(layer, 0) + int(count[nid])
        out.by_name[span_name] = int(count[nid])
        if what == "event":
            out.events += int(count[nid])
    roots = parent < 0
    out.root_s = float((end[roots] - start[roots]).sum())
    return out


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

def _span_function(tracer: Tracer, fn: Callable, name: str) -> Callable:
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        idx = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(idx)

    return traced


def _span_run(tracer: Tracer, run: Callable) -> Callable:
    """``Simulator.run`` as a ``sim`` span that also feeds the kernel's
    fire/done hook to the tracer for the duration of the call."""
    nid = tracer.name_id("sim:Simulator.run")

    @functools.wraps(run)
    def traced(self, until=None):
        if not tracer.on:
            return run(self, until)
        self.add_trace_hook(tracer.on_event, phases=("fire", "done"))
        idx = tracer.begin(nid)
        try:
            return run(self, until)
        finally:
            tracer.finish(idx)
            self.remove_trace_hook(tracer.on_event)

    return traced


class SpanCall:
    """Stand-in for a callable registered at a layer boundary."""

    __slots__ = ("fn", "name")

    def __init__(self, fn: Callable, name: str) -> None:
        self.fn = fn
        self.name = name

    def __call__(self, *args):
        tracer = _active
        if tracer is None or not tracer.on:
            return self.fn(*args)
        idx = tracer.begin(tracer.name_id(self.name))
        try:
            return self.fn(*args)
        finally:
            tracer.finish(idx)

    def __reduce__(self):
        return (SpanCall, (self.fn, self.name))


class HandlerSpans:
    """Stand-in for a resolver ``QueryHandler``: the three up-calls the
    resolver makes, each as a span of the handler's layer."""

    __slots__ = ("process_query", "process_response", "process_srdi")

    def __init__(self, handler: Any) -> None:
        kind = f"{layer_of(handler)}:{type(handler).__name__}"
        self.process_query = SpanCall(
            handler.process_query, f"{kind}.process_query")
        self.process_response = SpanCall(
            handler.process_response, f"{kind}.process_response")
        self.process_srdi = SpanCall(
            handler.process_srdi, f"{kind}.process_srdi")

    def __reduce__(self):
        return (HandlerSpans, (self.process_query.fn.__self__,))


def _named(obj: Any) -> str:
    return f"{layer_of(obj)}:{getattr(obj, '__qualname__', type(obj).__name__)}"


def _registration_patches() -> List[Tuple[Any, str, Callable]]:
    from repro.endpoint.service import EndpointService
    from repro.network.transport import Network
    from repro.resolver.service import ResolverService

    attach = Network.attach
    add_listener = EndpointService.add_listener
    register_handler = ResolverService.register_handler

    @functools.wraps(attach)
    def traced_attach(self, address, node, handler):
        return attach(self, address, node, SpanCall(handler, _named(handler)))

    @functools.wraps(add_listener)
    def traced_add_listener(self, service_name, service_param, listener):
        return add_listener(
            self, service_name, service_param,
            SpanCall(listener, _named(listener)),
        )

    @functools.wraps(register_handler)
    def traced_register_handler(self, name, handler):
        return register_handler(self, name, HandlerSpans(handler))

    return [
        (Network, "attach", traced_attach),
        (EndpointService, "add_listener", traced_add_listener),
        (ResolverService, "register_handler", traced_register_handler),
    ]


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Patch every boundary; returns what :func:`uninstall` undoes.
    Call before the overlay is built: up-calls are wrapped where they
    are registered."""
    global _active
    if _active is not None:
        raise RuntimeError("span patches are already installed")
    from repro.sim.kernel import Simulator

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    patch(Simulator, "run", _span_run(tracer, Simulator.run))
    for module, cls_name, methods, layer in CLASS_SPANS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            patch(cls, method, _span_function(
                tracer, getattr(cls, method), f"{layer}:{cls_name}.{method}"
            ))
    for module, func, layer in FUNCTION_SPANS:
        original = getattr(importlib.import_module(module), func)
        traced = _span_function(tracer, original, f"{layer}:{func}")
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, func, None) is original:
                patch(mod, func, traced)
    for owner, attr, new in _registration_patches():
        patch(owner, attr, new)
    _active = tracer
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    global _active
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    _active = None
