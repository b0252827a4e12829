"""Deterministic simulation checkpointing (see docs/CHECKPOINTS.md).

* :func:`snapshot_network` / :func:`restore_network` — byte-exact
  capture/restore of a live simulation graph at an event boundary.
* :class:`CheckpointStore` — content-addressed on-disk cache mapping
  canonical bootstrap specs to checkpoint blobs.
* :func:`warm_start` — the bootstrap seam every warm-startable
  experiment, campaign task and fuzz execution goes through.
"""

from repro.snapshot.core import (
    SNAPSHOT_VERSION,
    SnapshotError,
    restore_network,
    snapshot_network,
)
from repro.snapshot.store import CheckpointStore, checkpoint_key, warm_start

__all__ = [
    "SNAPSHOT_VERSION",
    "CheckpointStore",
    "SnapshotError",
    "checkpoint_key",
    "restore_network",
    "snapshot_network",
    "warm_start",
]
