"""Fake advertisement used by the "noiser" workload.

The paper's configuration B attaches 50 *noiser* edge peers that each
"publish a specified number of random advertisements f, called fake
advertisements, to its rendezvous peer" (§4.2).  This type is their
synthetic stand-in: an indexed ``Name`` plus an arbitrary payload that
pads the document to a realistic size.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.advertisement.base import Advertisement
from repro.advertisement.xmlcodec import register_advertisement_type


@register_advertisement_type
class FakeAdvertisement(Advertisement):
    """Synthetic advertisement for load-generation."""

    ADV_TYPE = "repro:FakeAdvertisement"
    INDEX_FIELDS = ("Name",)

    def __init__(self, name: str, payload: str = "") -> None:
        if not name:
            raise ValueError("fake advertisements need a non-empty Name")
        self.name = name
        self.payload = payload

    def _fields(self) -> Sequence[Tuple[str, str]]:
        return (("Name", self.name), ("Payload", self.payload))

    @classmethod
    def _from_fields(cls, fields: dict) -> "FakeAdvertisement":
        return cls(name=fields["Name"], payload=fields.get("Payload", ""))

    def _unique_key(self) -> str:
        return f"{self.ADV_TYPE}|{self.name}"
