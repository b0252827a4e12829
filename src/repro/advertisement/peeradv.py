"""Peer advertisement (``jxta:PA``).

Describes a peer: its ID, group, symbolic name and description.  The
paper's discovery benchmark publishes and looks up exactly this type:
"the resource is a peer represented by a peer advertisement Adv (so
the peer type is ``Peer``); the index attribute is ``Name`` and its
associated value is ``Test``" (§3.3).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.advertisement.base import Advertisement
from repro.advertisement.xmlcodec import register_advertisement_type
from repro.ids.jxtaid import PeerGroupID, PeerID


@register_advertisement_type
class PeerAdvertisement(Advertisement):
    """Advertisement describing a peer."""

    ADV_TYPE = "jxta:PA"
    INDEX_FIELDS = ("PID", "Name")

    def __init__(
        self,
        peer_id: PeerID,
        group_id: PeerGroupID,
        name: str,
        desc: str = "",
    ) -> None:
        self.peer_id = peer_id
        self.group_id = group_id
        self.name = name
        self.desc = desc

    def _fields(self) -> Sequence[Tuple[str, str]]:
        return (
            ("PID", self.peer_id.urn()),
            ("GID", self.group_id.urn()),
            ("Name", self.name),
            ("Desc", self.desc),
        )

    @classmethod
    def _from_fields(cls, fields: dict) -> "PeerAdvertisement":
        return cls(
            peer_id=PeerID.from_urn(fields["PID"]),
            group_id=PeerGroupID.from_urn(fields["GID"]),
            name=fields.get("Name", ""),
            desc=fields.get("Desc", ""),
        )

    def _unique_key(self) -> str:
        # a peer has exactly one peer advertisement; newer versions
        # (e.g. a renamed peer) replace older ones
        return f"{self.ADV_TYPE}|{self.peer_id.urn()}"
