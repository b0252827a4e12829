"""Content-addressed on-disk checkpoint store.

A checkpoint is keyed by the SHA-256 of the *canonical bootstrap spec*
— the JSON description of everything the warm-started state depends on
(overlay size, seed, warmup horizon, protocol overrides, snapshot
version...).  Same spec → same key → same bytes, however many
tasks share the prefix; a spec change — however small — misses and
rebuilds rather than silently reusing stale state.

Layout (``<root>/ab/<64-hex-key>.ckpt``)::

    8 bytes   magic  b"reprockp"
    4 bytes   store format version (big-endian)
    32 bytes  SHA-256 of the payload
    payload   a repro.snapshot blob (itself version-stamped)

Writes are atomic (tmp file + ``os.replace``), so concurrent builders
of the same key — two campaign workers racing on one bootstrap prefix
— at worst duplicate work, never corrupt the store.  Reads verify the
payload checksum; a corrupt or truncated blob is quarantined to
``<name>.corrupt`` and reported as a miss, so the caller recomputes
and the store heals itself.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.campaign.spec import canonical_json
from repro.snapshot.core import (
    SNAPSHOT_VERSION,
    disown_network,
    restore_network,
    snapshot_network,
)

_MAGIC = b"reprockp"
_FORMAT_VERSION = 1
_HEADER_LEN = len(_MAGIC) + 4 + 32


def checkpoint_key(spec: Mapping[str, Any]) -> str:
    """Content hash of a bootstrap spec.  The snapshot version is
    folded in, so a state-contract bump invalidates every stored
    checkpoint at the key level."""
    return hashlib.sha256(
        canonical_json(
            {"snapshot_version": SNAPSHOT_VERSION, "spec": dict(spec)}
        ).encode()
    ).hexdigest()


class CheckpointStore:
    """Directory of content-addressed, checksummed checkpoint blobs."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: wall-seconds spent inside ``build`` callables (miss cost)
        self.build_seconds = 0.0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.ckpt"

    def get(self, spec: Mapping[str, Any]) -> Optional[bytes]:
        """The stored blob for ``spec``, or None.  Verifies the
        checksum; corrupt blobs are quarantined and count as a miss."""
        key = checkpoint_key(spec)
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        payload = self._verify(raw)
        if payload is None:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, spec: Mapping[str, Any], blob: bytes) -> Path:
        """Store ``blob`` under ``spec``'s key, atomically."""
        key = checkpoint_key(spec)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256(blob).digest()
        framed = (
            _MAGIC + _FORMAT_VERSION.to_bytes(4, "big") + digest + blob
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(framed)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def load_or_build(
        self, spec: Mapping[str, Any], build: Callable[[], bytes]
    ) -> Tuple[bytes, bool]:
        """The core warm-start primitive: return ``(blob, hit)`` — the
        stored checkpoint for ``spec`` if present and intact, otherwise
        the result of ``build()`` after storing it."""
        blob = self.get(spec)
        if blob is not None:
            return blob, True
        import time as _time

        started = _time.monotonic()
        blob = build()
        self.build_seconds += _time.monotonic() - started
        self.put(spec, blob)
        return blob, False

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "build_seconds": self.build_seconds,
        }

    @staticmethod
    def _verify(raw: bytes) -> Optional[bytes]:
        if len(raw) < _HEADER_LEN or not raw.startswith(_MAGIC):
            return None
        off = len(_MAGIC)
        version = int.from_bytes(raw[off: off + 4], "big")
        if version != _FORMAT_VERSION:
            return None
        digest = raw[off + 4: _HEADER_LEN]
        payload = raw[_HEADER_LEN:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        return payload

    @staticmethod
    def _quarantine(path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # pragma: no cover - racing cleanup
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CheckpointStore({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def warm_start(
    store: Optional[CheckpointStore],
    key: Mapping[str, Any],
    build: Callable[[Mapping[str, Any]], Tuple[Any, Any]],
) -> Tuple[Any, Any]:
    """The one bootstrap seam: ``(network, extra)`` of the bootstrap
    that ``key`` describes.  ``build(key)`` deploys and warms it up
    from the key alone, so the key always describes the blob.  Without
    a store that is the answer; with one, the stored blob is restored,
    built and stored first on a miss.  The build-time network's obs hub
    leaves the ambient session: the caller continues from the restored
    copy, whose hub :func:`restore_network` adopts."""
    if store is None:
        return build(key)

    def snapshot() -> bytes:
        network, extra = build(key)
        blob = snapshot_network(network, extra=extra)
        disown_network(network)
        return blob

    blob, _hit = store.load_or_build(key, snapshot)
    return restore_network(blob)
