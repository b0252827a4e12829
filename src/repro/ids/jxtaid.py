"""JXTA ``uuid``-format identifiers.

Layout follows the JXTA ID specification closely enough for every
behaviour the paper exercises: a 16-byte group UUID, followed (for
peer/pipe/module IDs) by a 16-byte unique value, terminated by a type
byte.  The URN form is ``urn:jxta:uuid-<hex>``.

Type bytes (per the JXTA J2SE reference implementation):

====== =====================
0x01   Codat
0x02   PeerGroup
0x03   Peer
0x04   Port (unused here)
0x05   Pipe
0x06   ModuleClass
====== =====================
"""

from __future__ import annotations

from functools import total_ordering
from typing import Type, TypeVar

ID_FORMAT = "uuid"
_URN_PREFIX = f"urn:jxta:{ID_FORMAT}-"

TYPE_CODAT = 0x01
TYPE_PEERGROUP = 0x02
TYPE_PEER = 0x03
TYPE_PIPE = 0x05

T = TypeVar("T", bound="JxtaID")


@total_ordering
class JxtaID:
    """Base class: an immutable, totally ordered JXTA identifier."""

    __slots__ = ("_value", "_urn", "_intern")

    #: Subclasses set their JXTA type byte here.
    TYPE_BYTE: int = TYPE_CODAT

    def __init__(self, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"ID value must be bytes (got {type(value).__name__})")
        value = bytes(value)
        if len(value) == 0:
            raise ValueError("ID value must be non-empty")
        if value[-1] != self.TYPE_BYTE:
            raise ValueError(
                f"{type(self).__name__} requires type byte "
                f"0x{self.TYPE_BYTE:02x}, got 0x{value[-1]:02x}"
            )
        self._value = value

    # ------------------------------------------------------------------
    @property
    def value(self) -> bytes:
        """Raw ID bytes (including trailing type byte)."""
        return self._value

    def urn(self) -> str:
        """URN form, e.g. ``urn:jxta:uuid-…``.  IDs are immutable, so
        the string is computed once and cached — URNs appear in every
        advertisement field list and cache key on the hot path."""
        try:
            return self._urn
        except AttributeError:
            urn = _URN_PREFIX + self._value.hex().upper()
            self._urn = urn
            return urn

    @classmethod
    def from_urn(cls: Type[T], urn: str) -> T:
        """Parse a URN produced by :meth:`urn`."""
        if not urn.startswith(_URN_PREFIX):
            raise ValueError(f"not a jxta {ID_FORMAT} URN: {urn!r}")
        try:
            value = bytes.fromhex(urn[len(_URN_PREFIX):])
        except ValueError as exc:
            raise ValueError(f"bad hex in URN {urn!r}") from exc
        return cls(value)

    # ------------------------------------------------------------------
    # total order (drives the peerview sort and LC-DHT ranks)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, JxtaID) and self._value == other._value

    def __lt__(self, other: "JxtaID") -> bool:
        if not isinstance(other, JxtaID):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.short()})"

    def __str__(self) -> str:
        return self.urn()

    def short(self) -> str:
        """Abbreviated hex form for logs (first 8 hex chars of the
        unique part)."""
        return self._value.hex().upper()[-18:-2][:8]

    # ------------------------------------------------------------------
    # pickling (repro.snapshot)
    # ------------------------------------------------------------------
    def __getstate__(self) -> bytes:
        """Only the raw value round-trips.  The URN cache is derived
        (recomputed on demand) and the ``_intern`` pair is deliberately
        dropped: keeping it would drag the entire intern table into any
        standalone pickle of a single ID, and a restored ID re-caches
        the same dense key on its first ``intern()`` because table
        assignments are first-seen-deterministic and the table itself
        round-trips with the network graph."""
        return self._value

    def __setstate__(self, state: bytes) -> None:
        self._value = state

    # The ``_intern`` slot caches this ID's interned integer key as a
    # ``(table, key)`` pair (see :mod:`repro.ids.intern`).  It lives
    # here, not in the table, so the common repeat-lookup — the same ID
    # object flowing through peerview, router and SRDI on one message —
    # costs one attribute load and an ``is`` check instead of a string
    # of dict probes over URN-length byte keys.


class PeerGroupID(JxtaID):
    """Identifier of a peer group: 16-byte UUID + type byte."""

    TYPE_BYTE = TYPE_PEERGROUP

    @classmethod
    def from_uuid(cls, uuid16: bytes) -> "PeerGroupID":
        if len(uuid16) != 16:
            raise ValueError(f"group UUID must be 16 bytes (got {len(uuid16)})")
        return cls(uuid16 + bytes([cls.TYPE_BYTE]))

    @property
    def uuid(self) -> bytes:
        """The 16-byte group UUID."""
        return self._value[:16]


class _GroupScopedID(JxtaID):
    """IDs that embed their group's UUID: group(16) + unique(16) + type."""

    @classmethod
    def from_parts(cls: Type[T], group: PeerGroupID, unique16: bytes) -> T:
        if len(unique16) != 16:
            raise ValueError(f"unique value must be 16 bytes (got {len(unique16)})")
        return cls(group.uuid + unique16 + bytes([cls.TYPE_BYTE]))

    @classmethod
    def from_int(cls: Type[T], group: PeerGroupID, n: int) -> T:
        """Build an ID whose unique value is the big-endian encoding of
        ``n`` — handy for constructing the paper's worked examples
        (Table 1 uses peers with IDs 006, 020, 036, ...)."""
        if not (0 <= n < 2**128):
            raise ValueError(f"n out of range for 16 bytes: {n}")
        return cls.from_parts(group, n.to_bytes(16, "big"))

    @property
    def unique_value(self) -> bytes:
        return self._value[16:32]


class PeerID(_GroupScopedID):
    """Identifier of a peer."""

    TYPE_BYTE = TYPE_PEER


class PipeID(_GroupScopedID):
    """Identifier of a pipe."""

    TYPE_BYTE = TYPE_PIPE


#: The well-known World peer group every JXTA peer boots into.
WORLD_PEER_GROUP_ID = PeerGroupID.from_uuid(b"jxta-WorldGroup!")
#: The default Net peer group (the overlay S of the paper lives here).
NET_PEER_GROUP_ID = PeerGroupID.from_uuid(b"jxta-NetGroup-01")
