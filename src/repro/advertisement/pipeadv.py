"""Pipe advertisement (``jxta:PipeAdvertisement``).

Pipes are JXTA's named communication channels.  The paper's
experiments do not use pipes directly, but pipe advertisements are the
canonical *discoverable* resource in JXTA applications (JuxMem & co.
publish them), so the discovery examples exercise this type too.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.advertisement.base import Advertisement
from repro.advertisement.xmlcodec import register_advertisement_type
from repro.ids.jxtaid import PipeID

PIPE_TYPE_UNICAST = "JxtaUnicast"
PIPE_TYPE_PROPAGATE = "JxtaPropagate"


@register_advertisement_type
class PipeAdvertisement(Advertisement):
    """Advertisement describing a pipe endpoint."""

    ADV_TYPE = "jxta:PipeAdvertisement"
    INDEX_FIELDS = ("Id", "Name")

    def __init__(
        self,
        pipe_id: PipeID,
        name: str,
        pipe_type: str = PIPE_TYPE_UNICAST,
    ) -> None:
        if pipe_type not in (PIPE_TYPE_UNICAST, PIPE_TYPE_PROPAGATE):
            raise ValueError(f"unknown pipe type: {pipe_type!r}")
        self.pipe_id = pipe_id
        self.name = name
        self.pipe_type = pipe_type

    def _fields(self) -> Sequence[Tuple[str, str]]:
        return (
            ("Id", self.pipe_id.urn()),
            ("Type", self.pipe_type),
            ("Name", self.name),
        )

    @classmethod
    def _from_fields(cls, fields: dict) -> "PipeAdvertisement":
        return cls(
            pipe_id=PipeID.from_urn(fields["Id"]),
            name=fields.get("Name", ""),
            pipe_type=fields.get("Type", PIPE_TYPE_UNICAST),
        )

    def _unique_key(self) -> str:
        return f"{self.ADV_TYPE}|{self.pipe_id.urn()}"
