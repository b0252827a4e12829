"""The local peerview data structure.

"This protocol allows rendezvous peers to work together to form a
so-called global peerview: an ordered list (by peer ID) of peers
currently acting as rendezvous peers within a given group.  [...]
Each rendezvous peer maintains a local version of the list which
represents its view of the global peerview" (§3.2).

Conventions matching the paper:

* the list is totally ordered by peer ID;
* the local peer is part of the list (Table 1's replica ranks count
  every rendezvous), but the *measured size* ``l`` excludes it
  (footnote 2: "Our measurement excludes the local rendezvous peer
  from the size of the peerview");
* an entry expires when it has not been refreshed for
  ``PVE_EXPIRATION`` (Algorithm 1, line 3).

Representation
--------------
The view keys its entry map on **interned integer ids** (see
:mod:`repro.ids.intern`) rather than :class:`PeerID` objects: at
r = 580 the per-probe hashing of 33-byte IDs through Python-level
``__hash__``/``__eq__`` dominated the protocol stack's profile.
Interned keys carry no ordering meaning, so the sorted list holds the
table's ``(id_bytes, key)`` ordering tokens, one shared tuple per peer —
tuple/bytes comparisons run in C and the bytes order *is* the PeerID
order.  Public APIs still accept and return ``PeerID`` objects (mapped
O(1) through the intern table); protocol hot paths use the ``*_key``
variants.  A member is its advertisement in ``_entries`` and its last
refresh time in ``_stamps``, a C-double array indexed by the same key:
no per-member object, no per-member float.  The entry map is in
**refresh order** — whoever writes ``_stamps[key]`` moves the key to
the end — so, the clock never running backwards, an expiry sweep's dead
entries are its prefix.
"""

from __future__ import annotations

import bisect
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids.intern import IdInternTable
from repro.ids.jxtaid import PeerID


@dataclass(frozen=True, slots=True)
class PeerViewEntry:
    """One member of a local peerview, as :meth:`PeerView.get` reads it.

    Built on read, never stored: the view keeps the advertisement and
    the stamp apart (see the module notes), so writing a field of this
    copy could not refresh anything — it is frozen to fail loudly."""

    adv: RdvAdvertisement
    last_refreshed: float

    @property
    def peer_id(self) -> PeerID:
        return self.adv.rdv_peer_id


@dataclass(slots=True, eq=False)
class PeerViewEvent:
    """Add/remove event, the unit of the Figure 3 (right) scatter.

    Deliberately *not* frozen: a frozen dataclass routes every field
    through ``object.__setattr__`` in ``__init__``, and at paper scale
    the view churns tens of thousands of add/remove events per
    simulated slice (entries expiring faster than the protocol can
    re-probe them is the paper's phase 2/3 behaviour, not an edge
    case).  ``eq=False`` keeps identity semantics — events are
    observed, never compared."""

    time: float
    kind: str  # "add" | "remove"
    subject: PeerID
    reason: str = ""


PeerViewListener = Callable[[PeerViewEvent], None]


class PeerView:
    """Sorted, expiring set of rendezvous advertisements.

    ``expire_leak`` arms the ``"peerview.expire-leak"`` canary
    (docs/FUZZING.md)."""

    def __init__(
        self,
        local_adv: RdvAdvertisement,
        interner: Optional[IdInternTable] = None,
        expire_leak: bool = False,
    ) -> None:
        self.local_adv = local_adv
        self.expire_leak = expire_leak
        self.local_peer_id = local_adv.rdv_peer_id
        #: shared per-network table normally; a private one keeps
        #: standalone views (unit tests, worked examples) working
        self.interner = interner if interner is not None else IdInternTable()
        self.local_key = self.interner.intern(self.local_peer_id)
        #: key -> advertisement, in refresh order (see the module notes)
        self._entries: Dict[int, RdvAdvertisement] = {}
        #: last refresh time by key; a write past the end extends it to
        #: ``key + 1``, and a removed member's slot reads 0.0
        self._stamps = array("d")
        #: ``_entries``'s keys in first-insertion order; lets the
        #: referral/random-probe samplers pick indices instead of
        #: materialising an O(n) candidate list per draw.  Maintained by
        #: ``upsert``/``remove_by_key``; white-box code that mutates
        #: ``_entries`` directly must keep this in sync (same contract
        #: as ``invalidate_ordered_view``)
        self._key_seq: List[int] = []
        #: our own ordering token, the probe ``neighbor_key`` bisects for
        self._local_token = self.interner.order_token(self.local_key)
        #: members (self included) as the table's (id_bytes, key)
        #: tokens, bytes-ascending — the list rank/neighbour queries bisect
        self._order: List[Tuple[bytes, int]] = [self._local_token]
        #: memoised immutable snapshot of the ordered PeerIDs; rebuilt
        #: only after a membership change (see ``ordered_ids``)
        self._ordered_view: Optional[Tuple[PeerID, ...]] = None
        self._listeners: List[PeerViewListener] = []
        self.adds = 0
        self.removes = 0

    # ------------------------------------------------------------------
    # size & membership
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``l`` as the paper measures it: entries excluding self."""
        return len(self._entries)

    def __contains__(self, peer_id: PeerID) -> bool:
        key = self.interner.lookup(peer_id)
        return key is not None and (key in self._entries or key == self.local_key)

    def get(self, peer_id: PeerID) -> Optional[PeerViewEntry]:
        key = self.interner.lookup(peer_id)
        return None if key is None else self.get_by_key(key)

    def get_by_key(self, key: int) -> Optional[PeerViewEntry]:
        adv = self._entries.get(key)
        return None if adv is None else PeerViewEntry(adv, self._stamps[key])

    def known_ids(self) -> Iterable[PeerID]:
        """IDs of remote entries (excludes self), first-insertion order."""
        id_of = self.interner.id_of
        return [id_of(key) for key in self._key_seq]

    def known_keys(self) -> Iterable[int]:
        """Interned keys of remote entries (excludes self),
        first-insertion order: no ID objects materialised."""
        return tuple(self._key_seq)

    def ordered_ids(self) -> Tuple[PeerID, ...]:
        """All member IDs (self included), ascending — the routing list
        the LC-DHT rank function indexes into.

        Returns a cached *immutable* snapshot instead of copying the
        sorted list on every call: rank computations and probe rounds
        ask for this list constantly, and membership changes (the only
        thing that invalidates it) are rare by comparison."""
        view = self._ordered_view
        if view is None:
            id_of = self.interner.id_of
            view = self._ordered_view = tuple(
                id_of(key) for _, key in self._order
            )
        return view

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Snapshot state without the derived ``_ordered_view``.

        It is a pure memo over ``_order`` (rebuilt on the next
        ``ordered_ids`` call) and depends on *when* the view was last
        queried, not on membership, so keeping it would make pickle
        bytes vary between otherwise-identical views."""
        state = self.__dict__.copy()
        state["_ordered_view"] = None
        return state

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def invalidate_ordered_view(self) -> None:
        """Drop the cached :meth:`ordered_ids` snapshot.  Mutations
        through ``upsert``/``remove`` do this automatically; anything
        that touches ``_order`` directly (the fault engine's corruption
        injectors, white-box tests) must call it."""
        self._ordered_view = None

    def add_listener(self, listener: PeerViewListener) -> None:
        self._listeners.append(listener)

    def _emit(self, event: PeerViewEvent) -> None:
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def upsert(self, adv: RdvAdvertisement, now: float) -> str:
        """Insert or refresh the entry for ``adv``.

        Returns ``"self"`` (ignored: the local peer is implicit),
        ``"added"`` or ``"refreshed"``.
        """
        peer_id = adv.rdv_peer_id
        key = self.interner.intern(peer_id)
        if key == self.local_key:
            return "self"
        entries = self._entries
        if entries.pop(key, None) is not None:
            # a refresh moves the key to the end: ``_entries`` stays in
            # refresh order, which ``expire`` relies on; the newer
            # advertisement replaces the old (the route may change)
            entries[key] = adv
            self._stamps[key] = now
            return "refreshed"
        self.add_keyed(key, adv, now)
        return "added"

    def add_keyed(self, key: int, adv: RdvAdvertisement, now: float) -> None:
        """Insert a *new* entry whose interned key the caller has
        already resolved and confirmed absent (and not the local
        peer).  The protocol's receive path interns once and checks
        membership before it gets here; re-deriving all three facts in
        :meth:`upsert` was measurable at full scale."""
        peer_id = adv.rdv_peer_id
        self._entries[key] = adv
        stamps = self._stamps
        try:
            stamps[key] = now
        except IndexError:
            # past the end of the stamp array: extend it to key + 1
            stamps.extend([0.0] * (key - len(stamps)))
            stamps.append(now)
        self._key_seq.append(key)
        bisect.insort(self._order, self.interner.order_token(key))
        self._ordered_view = None
        self.adds += 1
        self._emit(PeerViewEvent(time=now, kind="add", subject=peer_id))

    def remove(self, peer_id: PeerID, now: float, reason: str = "") -> bool:
        """Drop an entry (expiry, explicit failure).  True if present."""
        key = self.interner.lookup(peer_id)
        if key is None:
            return False
        return self.remove_by_key(key, now, reason)

    def remove_by_key(self, key: int, now: float, reason: str = "") -> bool:
        if self._entries.pop(key, None) is None:
            return False
        # a snapshot holds no stamp of a non-member
        self._stamps[key] = 0.0
        self._key_seq.remove(key)
        order = self._order
        del order[bisect.bisect_left(order, self.interner.order_token(key))]
        peer_id = self.interner.id_of(key)
        self._ordered_view = None
        self.removes += 1
        self._emit(
            PeerViewEvent(time=now, kind="remove", subject=peer_id, reason=reason)
        )
        return True

    def expire(self, now: float, pve_expiration: float) -> List[PeerID]:
        """Algorithm 1 line 3: drop entries whose age since the last
        refresh exceeds ``pve_expiration``, oldest refresh first.
        Returns the dropped IDs.

        ``_entries`` is in refresh order, so the dead entries are its
        prefix: the sweep reads from the front and stops at the first
        live entry, O(expired) instead of a scan of every entry."""
        stamps = self._stamps
        dead_keys: List[int] = []
        for key in self._entries:
            if now - stamps[key] <= pve_expiration:
                break
            dead_keys.append(key)
        if not dead_keys:
            return []
        for key in dead_keys:
            self.remove_by_key(key, now, reason="expired")
            if self.expire_leak and key % 3 == 1:
                # the planted canary: the _order slot goes back, leaving
                # the ordered list inconsistent with the entry map
                bisect.insort(self._order, self.interner.order_token(key))
        id_of = self.interner.id_of
        return [id_of(key) for key in dead_keys]

    # ------------------------------------------------------------------
    # ordering queries
    # ------------------------------------------------------------------
    def rank_of(self, peer_id: PeerID) -> Optional[int]:
        """Position of ``peer_id`` in the ordered list, or None."""
        order = self._order
        # (value,) sorts immediately before any (value, key) pair, so
        # bisect lands on the entry for ``value`` if it is present
        index = bisect.bisect_left(order, (peer_id._value,))
        if index < len(order) and order[index][0] == peer_id._value:
            return index
        return None

    def id_at(self, rank: int) -> PeerID:
        """Member ID at ``rank`` (0-based) in the ordered list."""
        return self.interner.id_of(self._order[rank][1])

    def key_at(self, rank: int) -> int:
        """Interned key of the member at ``rank`` (hot-path variant)."""
        return self._order[rank][1]

    def member_count(self) -> int:
        """Ordered-list length (self included) — the ``l`` of the
        ReplicaPeer function."""
        return len(self._order)

    def neighbor_key(self, direction: int) -> Optional[int]:
        """Interned key of the member next to us in ``direction``
        (+1 = the ID that follows ours, -1 = the one that precedes it),
        or None at that end of the ordered list.

        The one neighbour lookup: the probe round asks for both
        neighbours every tick, and every LC-DHT walk hop asks for one,
        so it is a single bisect for our own ordering token (always a
        member) — no rank helper, no ``(value,)`` probe tuple."""
        order = self._order
        rank = bisect.bisect_left(order, self._local_token) + direction
        if 0 <= rank < len(order):
            return order[rank][1]
        return None

    def neighbor_of(self, peer_id: PeerID, direction: int) -> Optional[PeerID]:
        """Member adjacent to ``peer_id`` in the given direction
        (+1 = upper, -1 = lower), or None at the list ends.  Used by
        the LC-DHT walk."""
        if direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1 (got {direction})")
        rank = self.rank_of(peer_id)
        if rank is None:
            return None
        target = rank + direction
        if 0 <= target < len(self._order):
            return self.interner.id_of(self._order[target][1])
        return None

    # ------------------------------------------------------------------
    # referral choice
    # ------------------------------------------------------------------
    def random_referrals(
        self, rng: random.Random, count: int, exclude: Iterable[PeerID] = ()
    ) -> List[RdvAdvertisement]:
        """The advertisements of up to ``count`` distinct random members
        for a referral response, excluding the probing peer and self."""
        if count <= 0:
            return []
        intern = self.interner.intern
        entries = self._entries
        picked = self.sample_entry_keys(
            rng, count, [intern(pid) for pid in exclude]
        )
        return [entries[key] for key in picked]

    def sample_entry_keys(
        self, rng: random.Random, count: int, exclude_keys: Iterable[int]
    ) -> List[int]:
        """Up to ``count`` distinct random entry keys, excluding
        ``exclude_keys`` (self is never an entry, so it needs no
        exclusion).

        RNG-draw-identical to
        ``rng.sample([k for k in entries if k not in excluded], count)``
        without building the O(n) candidate list on every draw:
        ``random.sample`` consumes randomness as a function of the
        population *length* only, so sampling index positions from
        ``range(n)`` advances the stream exactly as sampling the list
        would, and the picked positions map through the insertion-order
        key list (skipping the excluded slots) to the same keys.

        The position draw itself mirrors CPython's ``random.sample``
        algorithm (partial Fisher-Yates over a pool for small
        populations, rejection-sampled set for large ones, with the
        same pool/set crossover) instead of calling it: the draw
        sequence stays bit-identical while dropping the sampler's own
        frames from the per-probe cost, and is pinned against future
        stdlib implementation changes."""
        keys = self._key_seq
        entries = self._entries
        # ascending positions of the excluded keys actually present
        positions: List[int] = []
        for k in exclude_keys:
            if k in entries:
                p = keys.index(k)
                if p not in positions:
                    positions.append(p)
        if len(positions) > 1:
            positions.sort()
        n = len(keys) - len(positions)
        if n <= 0:
            return []
        if n <= count:
            # want them all: no draw (matches the pre-sampling code)
            if not positions:
                return list(keys)
            dropped = set(positions)
            return [k for i, k in enumerate(keys) if i not in dropped]
        out = []
        # rng is a random.Random (see repro.sim.rng), whose _randbelow
        # is the getrandbits rejection loop; drawing through
        # getrandbits directly consumes the identical bit stream while
        # dropping one Python frame per draw
        grb = rng.getrandbits
        setsize = 21  # random.sample's pool/set crossover constant
        if count > 5:
            setsize += 4 ** math.ceil(math.log(count * 3, 4))
        if n <= setsize:
            pool = list(range(n))
            for i in range(count):
                m = n - i
                bits = m.bit_length()
                j = grb(bits)
                while j >= m:
                    j = grb(bits)
                pick = pool[j]
                pool[j] = pool[m - 1]
                # shift past the excluded slots at or below the pick
                for p in positions:
                    if pick >= p:
                        pick += 1
                    else:
                        break
                out.append(keys[pick])
        else:
            selected: set = set()
            bits = n.bit_length()
            for i in range(count):
                j = grb(bits)
                while j >= n:
                    j = grb(bits)
                while j in selected:
                    j = grb(bits)
                    while j >= n:
                        j = grb(bits)
                selected.add(j)
                for p in positions:
                    if j >= p:
                        j += 1
                    else:
                        break
                out.append(keys[j])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerView(local={self.local_peer_id.short()}, l={self.size})"
        )
