"""Deterministic simulation checkpointing (see docs/CHECKPOINTS.md).

* :func:`snapshot_network` / :func:`restore_network` — byte-exact
  capture/restore of a live simulation graph at an event boundary.
* :func:`fork_network` — in-process structured copy, for fanning one
  bootstrapped network out to many divergent continuations.
* :class:`CheckpointStore` — content-addressed on-disk cache mapping
  canonical bootstrap specs to checkpoint blobs.
* :func:`warm_start` — the bootstrap seam every warm-startable
  experiment, campaign task and fuzz execution goes through.
"""

from repro.snapshot.core import (
    SNAPSHOT_VERSION,
    SnapshotError,
    fork_network,
    restore_network,
    restore_simulator,
    snapshot_network,
    snapshot_simulator,
)
from repro.snapshot.store import CheckpointStore, checkpoint_key, warm_start

__all__ = [
    "SNAPSHOT_VERSION",
    "CheckpointStore",
    "SnapshotError",
    "checkpoint_key",
    "fork_network",
    "restore_network",
    "restore_simulator",
    "snapshot_network",
    "snapshot_simulator",
    "warm_start",
]
