"""Interning of :class:`~repro.ids.jxtaid.JxtaID` values to dense ints.

Why
---
At r = 580 every peerview probe, LC-DHT rank, SRDI push and route
lookup hashes and compares :class:`PeerID` objects — 33-byte values
behind Python-level ``__hash__``/``__eq__`` dispatch.  Profiles of the
protocol-stack benchmark show those two methods alone are a
double-digit share of wall clock.  The fix is classic interning: each
:class:`Network` owns one :class:`IdInternTable`; peers register their
IDs when they are built, and the hot data structures (peerview entry
maps, routing tables, lease maps, SRDI buckets) key on the resulting
*small dense ints*, which hash and compare in a handful of machine
instructions.  Public APIs keep speaking ``PeerID`` — the table maps
keys back to the registering ID objects in O(1).

Rules (also in docs/PERFORMANCE.md)
-----------------------------------
* Keys are assigned **in first-seen order** and are therefore
  deterministic for a given run, but carry **no ordering meaning**:
  peer 5 is not "less than" peer 9 in ID space.  Anything
  order-sensitive (LC-DHT ranks, neighbour selection) must sort by ID
  *bytes*; :class:`~repro.rendezvous.peerview.PeerView` keeps a sorted
  list of the table's ``(bytes, key)`` **ordering tokens** (one tuple
  per ID, shared by every view) so ordering comparisons stay in C.
* Keys are **table-scoped**.  Two simulations (two ``Network``
  instances) assign independent keys; the per-ID cache slot stores the
  ``(table, key)`` pair and is validated with an ``is`` check, so an ID
  object crossing tables (test fixtures, multi-network scenarios) can
  never leak a foreign key.
* Interning an unseen ID is always legal (the table grows); equality of
  keys implies equality of IDs *within one table* only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ids.jxtaid import JxtaID


class IdInternTable:
    """Bidirectional ID ↔ dense-int mapping for one network/simulation.

    ``intern`` is the hot entry point and is structured so the common
    case — an ID object that was interned before — touches no dict at
    all: the key is cached on the ID object itself (``_intern`` slot)
    and revalidated with a single identity check.

    That fast path (``table, key = jid._intern``; fall back to
    ``intern`` on ``AttributeError`` or a foreign table) is unrolled at
    the per-message call sites: ``EndpointService._on_envelope`` (source
    and destination) and ``send_to_peer``,
    ``EndpointRouter.add_direct_route``, ``PeerViewProtocol._learn`` and
    ``_on_referral``.  A change to the cache's format updates every one
    of them."""

    __slots__ = ("_by_value", "_ids", "_tokens")

    def __init__(self) -> None:
        #: raw ID bytes -> key (bytes, not JxtaID, so a *distinct but
        #: equal* ID object parsed from a message maps to the same key
        #: without invoking JxtaID.__hash__)
        self._by_value: Dict[bytes, int] = {}
        #: key -> the first ID object seen for it (id_of's return)
        self._ids: List[JxtaID] = []
        #: key -> ``(id bytes, key)``, the one ordering token per ID
        self._tokens: List[Tuple[bytes, int]] = []

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, jid: JxtaID) -> int:
        """Return the dense key for ``jid``, assigning the next one on
        first sight.  O(1); amortised to an attribute load + ``is``
        check when the same ID object recurs."""
        try:
            table, key = jid._intern
            if table is self:
                return key
        except AttributeError:
            pass
        by_value = self._by_value
        value = jid._value
        key = by_value.get(value)
        if key is None:
            key = len(self._ids)
            by_value[value] = key
            self._ids.append(jid)
            self._tokens.append((value, key))
        jid._intern = (self, key)
        return key

    # registration-time alias: reads as intent at call sites
    register = intern

    def lookup(self, jid: JxtaID) -> Optional[int]:
        """Key for ``jid`` if already interned, else None (never
        assigns)."""
        try:
            table, key = jid._intern
            if table is self:
                return key
        except AttributeError:
            pass
        return self._by_value.get(jid._value)

    def id_of(self, key: int) -> JxtaID:
        """The ID registered under ``key`` (O(1) list index)."""
        return self._ids[key]

    def order_token(self, key: int) -> Tuple[bytes, int]:
        """The one ``(id bytes, key)`` tuple ordered lists hold for ``key``."""
        return self._tokens[key]

    def __contains__(self, jid: JxtaID) -> bool:
        return self.lookup(jid) is not None
