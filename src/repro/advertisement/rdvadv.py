"""Rendezvous advertisement (``jxta:RdvAdvertisement``).

The currency of the peerview protocol: "A probe is a peerview message
that contains a rendezvous advertisement describing the sender"
(§3.2).  Besides the rendezvous peer's identity it carries a route
hint (the transport address), so a peer that learns a rendezvous from
a referral can contact it directly.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.advertisement.base import Advertisement
from repro.advertisement.xmlcodec import register_advertisement_type
from repro.ids.jxtaid import PeerGroupID, PeerID


@register_advertisement_type
class RdvAdvertisement(Advertisement):
    """Advertisement describing a peer acting as rendezvous for a group."""

    ADV_TYPE = "jxta:RdvAdvertisement"
    INDEX_FIELDS = ("RdvPeerID", "RdvGroupId", "Name")

    def __init__(
        self,
        rdv_peer_id: PeerID,
        group_id: PeerGroupID,
        name: str = "",
        service_name: str = "RdvService",
        route_hint: str = "",
    ) -> None:
        self.rdv_peer_id = rdv_peer_id
        self.group_id = group_id
        self.name = name
        self.service_name = service_name
        self.route_hint = route_hint

    def _fields(self) -> Sequence[Tuple[str, str]]:
        return (
            ("RdvPeerID", self.rdv_peer_id.urn()),
            ("RdvGroupId", self.group_id.urn()),
            ("Name", self.name),
            ("RdvServiceName", self.service_name),
            ("RouteHint", self.route_hint),
        )

    @classmethod
    def _from_fields(cls, fields: dict) -> "RdvAdvertisement":
        return cls(
            rdv_peer_id=PeerID.from_urn(fields["RdvPeerID"]),
            group_id=PeerGroupID.from_urn(fields["RdvGroupId"]),
            name=fields.get("Name", ""),
            service_name=fields.get("RdvServiceName", "RdvService"),
            route_hint=fields.get("RouteHint", ""),
        )

    def _unique_key(self) -> str:
        # one rendezvous advertisement per (peer, group)
        return (
            f"{self.ADV_TYPE}|{self.rdv_peer_id.urn()}|{self.group_id.urn()}"
        )
