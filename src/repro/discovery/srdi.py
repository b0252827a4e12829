"""SRDI: the Shared Resource Distributed Index.

"Peers maintain and publish attribute tables for their advertisements.
An attribute table consists of tuples (index attribute, value), each
of which is associated to a life duration and to the identity of the
publishing peer.  These attribute tables are published by the edge
peers to their associated rendezvous peers" (§3.3).

Two halves:

* :class:`SrdiIndex` — the rendezvous-side store mapping index tuples
  to publishers, with per-entry expiry;
* :class:`SrdiPusher` — the edge-side process that pushes new/changed
  tuples to the current rendezvous every ``srdi_push_interval``
  (default 30 s) and re-publishes everything "whenever they connect to
  a new rendezvous peer".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.advertisement.base import IndexTuple
from repro.advertisement.cache import AdvertisementCache, CacheEntry
from repro.config import PlatformConfig
from repro.ids.intern import IdInternTable
from repro.ids.jxtaid import PeerID
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask, Process


@dataclass(slots=True)
class SrdiPayload:
    """One SRDI push: tuples published by one peer."""

    #: (index tuple, remaining expiration in seconds)
    entries: List[Tuple[IndexTuple, float]]
    #: transport address of the publisher (so replica peers can route
    #: queries back even before ERP learns the route)
    publisher_address: str
    #: identity of the *original* publisher.  Replica copies travel
    #: rendezvous→rendezvous, so the resolver-level sender is NOT the
    #: publisher; queries must be forwarded to this peer, never to the
    #: forwarding rendezvous.
    publisher_peer: Optional["PeerID"] = None
    #: True when this payload is a rendezvous-to-replica copy; replica
    #: peers store it without replicating again.
    replicated: bool = False

    def size_bytes(self) -> int:
        return 120 + sum(
            len(t) + len(a) + len(v) + 24 for (t, a, v), _ in self.entries
        )


@dataclass(slots=True)
class _SrdiRecord:
    """Lifetime and publisher of the tuples one push carried: built by
    :meth:`SrdiIndex.add` only, never mutated, shared by every index
    slot whose four fields are equal."""

    publisher: PeerID
    publisher_address: str
    expires_at: float
    #: interned key of ``publisher``
    key: int


class SrdiIndex:
    """Rendezvous-side tuple store: index tuple -> publishers.

    Almost every tuple has one publisher, so ``_index[tuple]`` is that
    publisher's record itself until a second one arrives, from then on
    ``{interned publisher key: record}`` in arrival order; it goes with
    its last record.  Records keep the publisher :class:`PeerID` for
    the query forwarding path.  A reverse ``publisher key -> tuples``
    index (lists in arrival order; only a new record appends, so none
    holds a duplicate) makes :meth:`remove_publisher` (edge churn)
    proportional to the departed publisher's tuples instead of the
    whole store.

    Lifetime, publisher and publisher address are facts about a push,
    not about a tuple (§3.3), so consecutive :meth:`add` calls that
    agree on all three store the *same* record object — one record per
    push, however many tuples it carried."""

    def __init__(self, interner: Optional[IdInternTable] = None) -> None:
        self.interner = interner if interner is not None else IdInternTable()
        self._index: Dict[IndexTuple, Union[_SrdiRecord, Dict[int, _SrdiRecord]]] = {}
        self._by_publisher: Dict[int, List[IndexTuple]] = {}
        self._count = 0
        self.inserts = 0
        #: the record :meth:`add` made last, handed to the next tuple
        #: of the same push
        self._last: Optional[_SrdiRecord] = None

    def __len__(self) -> int:
        """Total number of (tuple, publisher) records currently stored
        (including not-yet-purged expired ones); this is the size that
        drives per-query matching cost."""
        return self._count

    def add(
        self,
        index_tuple: IndexTuple,
        publisher: PeerID,
        publisher_address: str,
        now: float,
        expiration: float,
    ) -> None:
        """Insert/refresh one record."""
        if expiration <= 0:
            raise ValueError(f"expiration must be > 0 (got {expiration})")
        key = self.interner.intern(publisher)
        expires_at = now + expiration
        record = self._last
        if (
            record is None
            or record.key != key
            or record.expires_at != expires_at
            or record.publisher_address != publisher_address
        ):
            record = self._last = _SrdiRecord(
                publisher, publisher_address, expires_at, key
            )
        bucket = self._index.get(index_tuple)
        if type(bucket) is dict:
            fresh = key not in bucket
            bucket[key] = record
        elif bucket is None or bucket.key == key:
            fresh = bucket is None
            self._index[index_tuple] = record
        else:
            fresh = True
            self._index[index_tuple] = {bucket.key: bucket, key: record}
        if fresh:
            self._count += 1
            tuples = self._by_publisher.get(key)
            if tuples is None:
                tuples = self._by_publisher[key] = []
            tuples.append(index_tuple)
        self.inserts += 1

    def lookup(
        self, index_tuple: IndexTuple, now: float
    ) -> List[_SrdiRecord]:
        """Publishers of an exact index tuple (live records only)."""
        bucket = self._index.get(index_tuple)
        if type(bucket) is dict:
            return [r for r in bucket.values() if r.expires_at > now]
        if bucket is None or bucket.expires_at <= now:
            return []
        return [bucket]

    def remove_publisher(self, publisher: PeerID) -> int:
        """Drop every record from one publisher (edge departed)."""
        key = self.interner.lookup(publisher)
        if key is None:
            return 0
        tuples = self._by_publisher.pop(key, None)
        if not tuples:
            return 0
        for index_tuple in tuples:
            self._discard(index_tuple, key)
        self._count -= len(tuples)
        return len(tuples)

    def _discard(self, index_tuple: IndexTuple, key: int) -> None:
        """Drop one publisher's record, and the bucket with its last."""
        bucket = self._index[index_tuple]
        if type(bucket) is dict:
            del bucket[key]
            if bucket:
                return
        del self._index[index_tuple]

    def purge_expired(self, now: float) -> int:
        """Drop expired records; returns the count dropped."""
        #: publisher key -> its expired tuples, in index order
        dead: Dict[int, Dict[IndexTuple, None]] = {}
        for index_tuple, bucket in self._index.items():
            if type(bucket) is dict:
                for k, r in bucket.items():
                    if r.expires_at <= now:
                        dead.setdefault(k, {})[index_tuple] = None
            elif bucket.expires_at <= now:
                dead.setdefault(bucket.key, {})[index_tuple] = None
        by_publisher = self._by_publisher
        dropped = 0
        for key, gone in dead.items():
            for index_tuple in gone:
                self._discard(index_tuple, key)
            # one rebuild per touched publisher, no list.remove per record
            kept = [t for t in by_publisher[key] if t not in gone]
            if kept:
                by_publisher[key] = kept
            else:
                del by_publisher[key]
            dropped += len(gone)
        self._count -= dropped
        return dropped

    def tuples(self) -> List[IndexTuple]:
        """All distinct index tuples currently present."""
        return list(self._index.keys())

    def clear(self) -> None:
        """Drop the whole store (rendezvous crash: SRDI is in-memory)."""
        self._index.clear()
        self._by_publisher.clear()
        self._count = 0
        self._last = None


class SrdiPusher(Process):
    """Edge-side periodic SRDI delta pusher.

    "JXTA edge peers periodically push tuples of updated or new
    indexes to their rendezvous peers (by default every 30 seconds).
    However, this is only done if advertisements have changed or have
    been explicitly republished [...]  edge peers also publish their
    tuples whenever they connect to a new rendezvous peer" (§3.3).

    A tick reads only what the cache's :attr:`~AdvertisementCache.journal`
    lists — the local publications since the last tick — and returns at
    once when nothing was published; a new rendezvous walks the whole
    cache.  Either way a tuple goes out once per rendezvous
    (``_pushed``), with the expiration of the first live local entry
    that carries it in cache order.
    """

    def __init__(
        self,
        sim: Simulator,
        cache: AdvertisementCache,
        config: PlatformConfig,
        send: Callable[[SrdiPayload], None],
        name: str = "srdi-pusher",
    ) -> None:
        super().__init__(sim, name)
        self.cache = cache
        cache.open_journal()
        self.config = config
        self._send = send
        #: tuples already pushed to the *current* rendezvous
        self._pushed: Dict[IndexTuple, None] = {}
        self.pushes = 0
        self._task = PeriodicTask(
            sim,
            config.srdi_push_interval,
            self._tick,
            name=name,
            start_jitter=min(config.srdi_push_interval, config.startup_jitter),
        )

    def on_start(self) -> None:
        self._task.start()

    def on_stop(self) -> None:
        self._task.stop()

    # ------------------------------------------------------------------
    def rendezvous_changed(self) -> None:
        """New rendezvous: forget push history and re-publish at once."""
        self._pushed.clear()
        self.cache.journal.clear()
        self._push(self.cache.entries())

    def push_now(self) -> None:
        """Push all not-yet-pushed tuples of locally published
        advertisements immediately."""
        self._tick()

    def _tick(self) -> None:
        if self.cache.journal:
            self._push(self.cache.drain_journal())

    def _push(self, entries: Iterable[CacheEntry]) -> None:
        """Send the tuples of the live local ones among ``entries`` not
        pushed to this rendezvous yet, as one payload."""
        now = self.sim.now
        delta: List[Tuple[IndexTuple, float]] = []
        for entry in entries:
            if not entry.local or entry.expired(now):
                continue
            for index_tuple in entry.adv.index_tuples():
                if index_tuple not in self._pushed:
                    self._pushed[index_tuple] = None
                    delta.append((index_tuple, entry.expiration))
        if delta:
            self.pushes += 1
            self._send(
                SrdiPayload(entries=delta, publisher_address="")
            )
