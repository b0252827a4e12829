"""Local advertisement cache (JXTA-C's "CM", content manager).

Every peer stores the advertisements it has published or discovered.
The cache implements the two-clock semantics of
:mod:`repro.advertisement.base` (lifetime for own copies, expiration
for remote copies), query-by-attribute with ``*`` wildcards, and an
explicit :meth:`flush` because the paper's discovery benchmark flushes
the searcher's cache between queries ("each of them followed by a
flush of the local searcher cache, in order to avoid cache speedup",
§4.2).

The cache is clock-free: callers pass the current simulated time, so
the same object works in any simulation or in real time.

Performance design
------------------
Queries used to scan every entry with ``fnmatchcase``.  The one query
the protocol issues — ``DiscoveryService._handle_query``: a type, an
attribute and a glob-free value — is now one probe of a hash index,
(type, attribute, value) → keys, keyed by the advertisement's own
memoised index tuple; a single member is stored inline (the key string
itself until a second key arrives, then a ``{key: None}`` dict) and a
bucket is deleted with its last key.  A multi-member bucket lists its
keys in ``_entries`` order, so results come back in the same order —
and honour ``limit`` the same way — as the historical linear scan.

Every other shape (no type, no attribute, ``value=None``, or a value
with the glob metacharacters ``*``, ``?``, ``[``) *is* that linear
scan: one filtered pass over ``_entries``, whose dict order is insertion
order (an overwrite keeps its key's place, a dropped key re-enters at
the end).  A value with metacharacters matches by ``fnmatchcase`` only
(the literal ``a[b]`` does not match the pattern ``a[b]``), a glob-free
one by ``==`` only.  No protocol path asks those shapes, so nothing is
maintained per publish to answer them: they cost O(cache), also for a
type that holds few of the entries.

Nothing but the entry itself records when it expires: queries skip
expired entries as they meet them, and :meth:`purge_expired` — which no
protocol path calls — is a plain scan.  An entry overwritten by
:meth:`store_remote` / :meth:`publish` is therefore freed at once.

An edge's SRDI pusher needs the local publications since its last tick,
not the whole cache: with a pusher attached, :attr:`journal` lists the
key of every :meth:`publish` that may carry a tuple not pushed yet, and
:meth:`drain_journal` hands their entries back in ``_entries`` order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.advertisement.base import (
    Advertisement,
    DEFAULT_EXPIRATION,
    DEFAULT_LIFETIME,
    IndexTuple,
)


#: ``has_glob(value)`` is truthy (a match) if ``value`` uses fnmatch
#: metacharacters (``*``, ``?``, ``[``) and therefore cannot be answered
#: from an exact index — this cache's, or the LC-DHT's hash of the
#: tuple — and None otherwise.  A compiled pattern's bound ``search``:
#: the test runs in C, with no Python frame, on every query.
has_glob = re.compile(r"[*?[]").search


@dataclass(slots=True)
class CacheEntry:
    """One cached advertisement plus its bookkeeping."""

    adv: Advertisement
    #: Absolute simulated time at which this copy disappears.
    expires_at: float
    #: True if this peer is the publisher (stored with *lifetime*).
    local: bool
    #: Residual expiration to hand to peers we forward the adv to.
    expiration: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class AdvertisementCache:
    """Keyed store of advertisements with expiry and wildcard search."""

    def __init__(self) -> None:
        self._entries: Dict[str, CacheEntry] = {}
        #: index tuple -> the one key indexed by it, or several of them
        #: in ``_entries`` order.
        self._by_attr: Dict[IndexTuple, Union[str, Dict[str, None]]] = {}
        #: keys :meth:`publish` stored since :meth:`drain_journal` last
        #: ran (a key may repeat); None — record nothing — until an
        #: :class:`~repro.discovery.srdi.SrdiPusher` attaches
        self.journal: Optional[List[str]] = None
        self.inserts = 0
        self.purged = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, adv: Advertisement) -> bool:
        return adv.unique_key() in self._entries

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _index_add(self, key: str, adv: Advertisement) -> None:
        for index_tuple in adv.index_tuples():
            exact = self._by_attr.get(index_tuple)
            if exact is None:
                self._by_attr[index_tuple] = key
            elif type(exact) is dict:
                exact[key] = None
            elif exact != key:
                self._by_attr[index_tuple] = {exact: None, key: None}

    def _index_discard(self, key: str, adv: Advertisement) -> None:
        for index_tuple in adv.index_tuples():
            exact = self._by_attr.get(index_tuple)
            if type(exact) is dict:
                exact.pop(key, None)
                if not exact:
                    del self._by_attr[index_tuple]
            elif exact == key:
                del self._by_attr[index_tuple]

    def _store(self, key: str, entry: CacheEntry) -> Optional[CacheEntry]:
        """Put ``entry`` under ``key``; returns the entry it replaced."""
        old = self._entries.get(key)
        if old is None:
            # a key new to ``_entries`` is last there, and in its buckets
            self._index_add(key, entry.adv)
        elif old.adv is not entry.adv:
            # Another document under a key that keeps its place in
            # ``_entries``: the multi-member buckets it joined are
            # re-read in that order, O(cache) each (rare: published
            # documents are shared objects, and most buckets inline).
            self._index_discard(key, old.adv)
            self._index_add(key, entry.adv)
            for index_tuple in entry.adv.index_tuples():
                members = self._by_attr[index_tuple]
                if type(members) is dict:
                    self._by_attr[index_tuple] = {
                        k: None for k in self._entries if k in members
                    }
        self._entries[key] = entry
        self.inserts += 1
        return old

    def _drop(self, key: str, entry: CacheEntry) -> None:
        del self._entries[key]
        self._index_discard(key, entry.adv)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def publish(
        self,
        adv: Advertisement,
        now: float,
        lifetime: float = DEFAULT_LIFETIME,
        expiration: float = DEFAULT_EXPIRATION,
    ) -> CacheEntry:
        """Store a *locally published* advertisement.

        The key goes to :attr:`journal` unless this re-stores the same
        document over a live local copy: that copy was live and local
        when the journal was last drained too (or is journaled since),
        so the pusher has every tuple of it already."""
        if lifetime <= 0:
            raise ValueError(f"lifetime must be > 0 (got {lifetime})")
        entry = CacheEntry(
            adv=adv,
            expires_at=now + lifetime,
            local=True,
            expiration=expiration,
        )
        key = adv.unique_key()
        old = self._store(key, entry)
        journal = self.journal
        if journal is not None and (
            old is None or old.adv is not adv or not old.local
            or old.expired(now)
        ):
            journal.append(key)
        return entry

    def store_remote(
        self,
        adv: Advertisement,
        now: float,
        expiration: float = DEFAULT_EXPIRATION,
    ) -> CacheEntry:
        """Store a copy obtained from another peer.  A remote copy never
        overwrites a local (published) one."""
        if expiration <= 0:
            raise ValueError(f"expiration must be > 0 (got {expiration})")
        key = adv.unique_key()
        existing = self._entries.get(key)
        if existing is not None and existing.local and not existing.expired(now):
            return existing
        entry = CacheEntry(
            adv=adv,
            expires_at=now + expiration,
            local=False,
            expiration=expiration,
        )
        self._store(key, entry)
        return entry

    def remove(self, adv: Advertisement) -> bool:
        """Remove an advertisement.  Returns True if it was present."""
        key = adv.unique_key()
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._drop(key, entry)
        return True

    def purge_expired(self, now: float) -> int:
        """Drop expired entries; returns how many were dropped."""
        dead = [(k, e) for k, e in self._entries.items() if e.expired(now)]
        for key, entry in dead:
            self._drop(key, entry)
        self.purged += len(dead)
        return len(dead)

    def flush(self) -> int:
        """Drop everything (the benchmark's anti-cache-speedup step)."""
        n = len(self._entries)
        self._entries.clear()
        self._by_attr.clear()
        return n

    def open_journal(self) -> None:
        """Start :attr:`journal` with every key cached now: all of it is
        new to the pusher that attaches."""
        self.journal = list(self._entries)

    def drain_journal(self) -> List[CacheEntry]:
        """Empty :attr:`journal` and return the entries of its distinct
        keys that are still cached, in ``_entries`` order — the order the
        whole-cache walk met them in.  A key published since the last
        drain is at the tail of ``_entries`` unless it overwrote a copy
        already there, so the reverse walk usually stops after about as
        many entries as were journaled."""
        entries = self._entries
        pending = {key: None for key in self.journal if key in entries}
        self.journal.clear()
        found: List[CacheEntry] = []
        if pending:
            for key in reversed(entries):
                if key in pending:
                    found.append(entries[key])
                    if len(found) == len(pending):
                        break
            found.reverse()
        return found

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def entries(self, now: Optional[float] = None) -> Iterable[CacheEntry]:
        """All live entries (all entries if ``now`` is None)."""
        for entry in self._entries.values():
            if now is None or not entry.expired(now):
                yield entry

    def get(self, adv: Advertisement, now: float) -> Optional[CacheEntry]:
        """Look up the live entry for this advertisement's key."""
        entry = self._entries.get(adv.unique_key())
        if entry is None or entry.expired(now):
            return None
        return entry

    def _scan(
        self,
        adv_type: Optional[str],
        attribute: Optional[str],
        value: Optional[str],
    ) -> Iterator[CacheEntry]:
        """The linear scan, lazily: entries of ``adv_type`` (None: any)
        whose ``attribute`` (None: nothing asked) matches ``value`` (None:
        present with any value), in insertion order."""
        glob = value is not None and has_glob(value)
        for entry in self._entries.values():
            adv = entry.adv
            if adv_type is not None and adv.ADV_TYPE != adv_type:
                continue
            if attribute is not None:
                for _, attr, val in adv.index_tuples():
                    if attr == attribute and (
                        value is None
                        or (fnmatchcase(val, value) if glob else val == value)
                    ):
                        break
                else:
                    continue
            yield entry

    def search(
        self,
        adv_type: Optional[str],
        attribute: Optional[str],
        value: Optional[str],
        now: float,
        limit: Optional[int] = None,
    ) -> List[Advertisement]:
        """Find live advertisements matching a discovery query.

        ``adv_type`` of None matches all types.  ``attribute``/``value``
        of None match everything of the type; otherwise the named index
        attribute must glob-match ``value`` (``*``/``?`` wildcards, as
        in the JXTA discovery API).  A type, an attribute and a
        glob-free value are one index probe; any other shape scans the
        cache.  At most ``limit`` results (none for ``limit <= 0``).

        Results come back in insertion order (oldest key first), exactly
        as the historical full-scan implementation returned them.
        """
        if limit is not None and limit <= 0:
            return []
        if (
            adv_type is None or attribute is None or value is None
            or has_glob(value)
        ):
            candidates: Iterable[CacheEntry] = self._scan(
                adv_type, attribute, value
            )
        else:
            exact = self._by_attr.get((adv_type, attribute, value))
            if exact is None:
                return []  # one probe: every hop of a walk but the last
            if type(exact) is str:
                # a single member (``limit`` is at least 1 here)
                entry = self._entries[exact]
                return [] if now >= entry.expires_at else [entry.adv]
            candidates = map(self._entries.__getitem__, exact)

        out: List[Advertisement] = []
        for entry in candidates:
            if now >= entry.expires_at:  # CacheEntry.expired, inlined
                continue
            out.append(entry.adv)
            if limit is not None and len(out) >= limit:
                break
        return out
