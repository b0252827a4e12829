"""Pipe binding advertisements.

Binding an input pipe publishes one of these; resolving an output pipe
is a discovery query for the pipe's ID.  The advertisement carries the
bound peer's identity and transport address so the resolver can route
pipe messages without a separate ERP exchange.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.advertisement.base import Advertisement
from repro.advertisement.xmlcodec import register_advertisement_type
from repro.ids.jxtaid import PeerID, PipeID


@register_advertisement_type
class PipeBindingAdvertisement(Advertisement):
    """States that ``peer_id`` currently binds input pipe ``pipe_id``."""

    ADV_TYPE = "repro:PipeBinding"
    INDEX_FIELDS = ("PipeID",)

    def __init__(self, pipe_id: PipeID, peer_id: PeerID, address: str) -> None:
        if not address:
            raise ValueError("a pipe binding needs the binder's address")
        self.pipe_id = pipe_id
        self.peer_id = peer_id
        self.address = address

    def _fields(self) -> Sequence[Tuple[str, str]]:
        return (
            ("PipeID", self.pipe_id.urn()),
            ("PeerID", self.peer_id.urn()),
            ("Address", self.address),
        )

    @classmethod
    def _from_fields(cls, fields: dict) -> "PipeBindingAdvertisement":
        return cls(
            pipe_id=PipeID.from_urn(fields["PipeID"]),
            peer_id=PeerID.from_urn(fields["PeerID"]),
            address=fields["Address"],
        )

    def _unique_key(self) -> str:
        # several peers may bind the same propagate pipe: identity is
        # the (pipe, binder) pair
        return f"{self.ADV_TYPE}|{self.pipe_id.urn()}|{self.peer_id.urn()}"
