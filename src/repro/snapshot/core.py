"""Full-fidelity capture and restore of a running simulation.

A snapshot is a protocol-5 pickle of the live object graph — the
:class:`~repro.sim.kernel.Simulator` (event heap, clock, seq counter,
trace hooks), the RNG registry with each named
stream's Mersenne state, the :class:`~repro.network.Network` (endpoints,
latency model, fault controller, intern table, observability
hub) and all per-peer protocol state reachable from queued events.
Pickle's memo preserves shared-object identity inside one graph, so a
restored transport still holds the *same* latency stream object as the
restored registry, and bound-method callbacks in the event queue point
at the restored peers.

The determinism contract (pinned by the snapshot test suites and a CI
step): a restored run fires the exact same ``(time, seq)`` event
sequence as the never-checkpointed run and reproduces golden traces,
obs digests and workload SLO snapshots byte for byte.  Nothing in the
blob depends on the restoring process's environment: a restored run
runs as it was built.

What does NOT snapshot — by design (see docs/CHECKPOINTS.md):

* closures, lambdas and generator iterators anywhere in the reachable
  graph (pickle refuses them; :class:`SnapshotError` names the
  offender).  Protocol-internal callbacks are bound methods or callable
  classes precisely so the *bootstrap-phase* graph is always clean;
  measurement-phase objects (in-flight query callbacks, live workload
  engines with generator-driven arrival processes) are constructed
  *after* restore instead.
* a recorder that patches ``network.send`` with a closure — recorders
  that must survive a restore hang off the graph itself, like
  :class:`~repro.sim.tracing.KernelTraceRecorder` or the
  ``network.obs`` hub (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import pickle
from typing import Any, Tuple

#: Bump whenever the pickled state contract changes incompatibly
#: (slot layouts, event-heap entry layout, RNG stream naming).  Stored
#: checkpoints with another version are invalidated, not misread.
SNAPSHOT_VERSION = 22

#: sha256 of the pickled layout (classes, their fields, container
#: types) reachable from a reference snapshot, as
#: ``tests/integration/test_snapshot_layout.py`` computes it.  When
#: that test fails the layout moved: bump the version above, then
#: regenerate this value with the command the failure prints.
SNAPSHOT_LAYOUT_FINGERPRINT = (
    "3e3f6f0d525dd1bee0f559a7e3b36c110b2b9326490103799d56c07cef5ad4f5"
)

_MAGIC = b"repro-snap"


class SnapshotError(Exception):
    """A simulation graph could not be captured or restored."""


def _dumps(payload: Any) -> bytes:
    try:
        return pickle.dumps(payload, protocol=5)
    except Exception as exc:  # TypeError/PicklingError/AttributeError
        raise SnapshotError(
            f"simulation state is not snapshottable: {exc!r}. Snapshots "
            "must be taken at an event boundary with no closures, "
            "lambdas or generators in the reachable graph (see "
            "docs/CHECKPOINTS.md)."
        ) from exc


def _frame(body: bytes) -> bytes:
    return _MAGIC + SNAPSHOT_VERSION.to_bytes(4, "big") + body


def _unframe(blob: bytes) -> bytes:
    if not blob.startswith(_MAGIC):
        raise SnapshotError("not a repro snapshot (bad magic)")
    version = int.from_bytes(blob[len(_MAGIC): len(_MAGIC) + 4], "big")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} != supported {SNAPSHOT_VERSION}"
        )
    return blob[len(_MAGIC) + 4:]


def _readopt(network) -> None:
    """Hand a restored network's observability hub to the ambient
    :class:`~repro.obs.runtime.ObsSession`, if one is active: recorders
    survive the restore *inside* the graph, but the session that
    aggregates hubs at exit lives outside it."""
    if network is None:
        return
    obs = getattr(network, "obs", None)
    if obs is None:
        return
    from repro.obs import runtime as _obs_runtime

    session = _obs_runtime.current()
    if session is not None and obs not in session.hubs:
        session.hubs.append(obs)


def disown_network(network) -> None:
    """Inverse of the hub adoption at :class:`~repro.network.Network`
    construction: drop ``network``'s obs hub from the ambient obs
    session, if present.  :func:`~repro.snapshot.store.warm_start`
    calls this after snapshotting a bootstrap graph it discards — the
    caller continues from the *restored* copy, whose hub is re-adopted
    by :func:`restore_network`, and without the disown the build-time
    hub would double-count every bootstrap metric in the session
    merge."""
    if network is None:
        return
    obs = getattr(network, "obs", None)
    if obs is None:
        return
    from repro.obs import runtime as _obs_runtime

    session = _obs_runtime.current()
    if session is not None and obs in session.hubs:
        session.hubs.remove(obs)


# ---------------------------------------------------------------------------
# network-level API (the experiment/campaign unit)
# ---------------------------------------------------------------------------

def snapshot_network(network, extra: Any = None) -> bytes:
    """Serialize a network — simulator included via ``network.sim`` —
    plus an optional ``extra`` object pickled *in the same graph* (same
    memo), so an overlay handle or peer list in ``extra`` references
    the identical restored peers."""
    if network.sim._running:
        raise SnapshotError(
            "cannot snapshot while the simulator is running; snapshot "
            "between run() calls (an event boundary)"
        )
    return _frame(
        _dumps({"kind": "network", "net": network, "extra": extra})
    )


def restore_network(blob: bytes) -> Tuple[Any, Any]:
    """Inverse of :func:`snapshot_network`: returns ``(network,
    extra)`` and re-adopts the network's obs hub into the ambient obs
    session (if any)."""
    payload = pickle.loads(_unframe(blob))
    if payload.get("kind") != "network":
        raise SnapshotError(
            f"expected a network snapshot, got {payload.get('kind')!r}"
        )
    network = payload["net"]
    _readopt(network)
    return network, payload["extra"]

