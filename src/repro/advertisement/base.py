"""Advertisement base class.

JXTA expiration semantics (used verbatim by the paper's benchmarks —
"advertisements, whose life duration can be controlled via the
discovery API"):

* **lifetime** — how long the *publisher* keeps the advertisement in
  its own cache (JXTA default: effectively forever for one's own
  advertisements; we use 365 days);
* **expiration** — how long *other* peers may keep a copy they
  obtained remotely (JXTA default: 2 hours).
"""

from __future__ import annotations

from typing import ClassVar, Sequence, Tuple
import xml.etree.ElementTree as ET

from repro.sim.units import HOURS

IndexTuple = Tuple[str, str, str]  # (advertisement type, attribute, value)

#: Default publisher-side lifetime (JXTA: DEFAULT_LIFETIME ≈ 1 year).
DEFAULT_LIFETIME: float = 365 * 24 * HOURS
#: Default remote-copy expiration (JXTA: DEFAULT_EXPIRATION = 2 hours).
DEFAULT_EXPIRATION: float = 2 * HOURS


class Advertisement:
    """Abstract XML document describing a resource.

    Subclasses define:

    * ``ADV_TYPE`` — the JXTA document type (e.g. ``"jxta:PA"``);
    * ``INDEX_FIELDS`` — attribute names by which instances are
      indexed for discovery;
    * ``_fields()`` — ordered ``(tag, text)`` pairs for serialization;
    * ``_from_fields(cls, fields)`` — inverse constructor;
    * ``_unique_key()`` — optionally, a narrower cache identity than
      "type plus every field" (:meth:`unique_key` memoises it).
    """

    ADV_TYPE: ClassVar[str] = "jxta:Adv"
    INDEX_FIELDS: ClassVar[Tuple[str, ...]] = ()

    # ------------------------------------------------------------------
    # subclass protocol
    # ------------------------------------------------------------------
    def _fields(self) -> Sequence[Tuple[str, str]]:
        raise NotImplementedError

    @classmethod
    def _from_fields(cls, fields: dict) -> "Advertisement":
        raise NotImplementedError

    # ------------------------------------------------------------------
    # identity & indexing
    # ------------------------------------------------------------------
    def _unique_key(self) -> str:
        """Subclass hook behind :meth:`unique_key`.  Default: type plus
        all field values."""
        return self.ADV_TYPE + "|" + "|".join(
            f"{t}={v}" for t, v in self._fields()
        )

    def unique_key(self) -> str:
        """Cache identity.  Two advertisements with the same key are
        versions of the same resource description; publishing again
        replaces the old copy.  Memoised like :meth:`size_bytes`: every
        cache that stores this document keys its entry by this one
        string."""
        key = self.__dict__.get("_key_cache")
        if key is None:
            key = self.__dict__["_key_cache"] = self._unique_key()
        return key

    def index_tuples(self) -> Tuple[IndexTuple, ...]:
        """The ``(type, attribute, value)`` tuples this advertisement
        is indexed by — the unit of SRDI publication (§3.3: "An
        attribute table consists of tuples (index attribute, value)").
        Memoised like :meth:`size_bytes`: the cache index, the SRDI
        pusher, payloads and stores all hold these same tuple objects."""
        tuples = self.__dict__.get("_index_cache")
        if tuples is None:
            values = dict(self._fields())
            tuples = self.__dict__["_index_cache"] = tuple(
                (self.ADV_TYPE, attr, values[attr])
                for attr in self.INDEX_FIELDS if values.get(attr)
            )
        return tuples

    # ------------------------------------------------------------------
    # XML codec
    # ------------------------------------------------------------------
    def to_element(self) -> ET.Element:
        """Serialize to an ElementTree element."""
        root = ET.Element(self.ADV_TYPE.replace(":", "."))
        root.set("type", self.ADV_TYPE)
        for tag, text in self._fields():
            child = ET.SubElement(root, tag)
            child.text = text
        return root

    def to_xml(self) -> str:
        """Serialize to an XML string (with declaration, like JXTA-C)."""
        body = ET.tostring(self.to_element(), encoding="unicode")
        return '<?xml version="1.0"?>\n' + body

    def size_bytes(self) -> int:
        """Approximate wire size: the UTF-8 length of the XML form.

        Cached on the instance: every message send asks for the size,
        and rebuilding the ElementTree (or even just the field tuple)
        each time dominated the protocol-stack benchmark.  The cache is
        invalidated by :meth:`__setattr__`, so mutating any field
        transparently recomputes the size."""
        size = self.__dict__.get("_size_cache")
        if size is None:
            size = len(self.to_xml().encode("utf-8"))
            self.__dict__["_size_cache"] = size
        return size

    def __setattr__(self, name: str, value: object) -> None:
        # any field write drops the memos; writes are rare (construction,
        # codec round-trips) while size_bytes runs once per message sent
        d = self.__dict__
        d[name] = value
        if "_size_cache" in d or "_index_cache" in d or "_key_cache" in d:
            d.pop("_size_cache", None)
            d.pop("_index_cache", None)
            d.pop("_key_cache", None)

    def __getstate__(self) -> dict:
        # the memos are derived state: carrying them would make pickle
        # bytes depend on whether size_bytes() / index_tuples() /
        # unique_key() happened to run before the snapshot, breaking
        # byte-stable checkpoints
        state = self.__dict__.copy()
        state.pop("_size_cache", None)
        state.pop("_index_cache", None)
        state.pop("_key_cache", None)
        return state

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Advertisement)
            and self.ADV_TYPE == other.ADV_TYPE
            and list(self._fields()) == list(other._fields())
        )

    def __hash__(self) -> int:
        return hash((self.ADV_TYPE, tuple(self._fields())))

    def __repr__(self) -> str:
        fields = ", ".join(f"{t}={v!r}" for t, v in list(self._fields())[:3])
        return f"{type(self).__name__}({fields})"
