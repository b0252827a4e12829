"""Route advertisement (``jxta:RA``).

Produced and consumed by the Endpoint Routing Protocol: an ordered
list of endpoint addresses through which a destination peer can be
reached.  In the paper's flat TCP deployments routes are single-hop,
but the type supports multi-hop routes (edge peers behind their
rendezvous) as ERP requires.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.advertisement.base import Advertisement
from repro.advertisement.xmlcodec import register_advertisement_type
from repro.ids.jxtaid import PeerID

_HOP_SEPARATOR = " "


@register_advertisement_type
class RouteAdvertisement(Advertisement):
    """Advertisement describing a route to a destination peer."""

    ADV_TYPE = "jxta:RA"
    INDEX_FIELDS = ("DstPID",)

    def __init__(self, dst_peer_id: PeerID, hops: Sequence[str]) -> None:
        if not hops:
            raise ValueError("a route needs at least one hop address")
        self.dst_peer_id = dst_peer_id
        self.hops: List[str] = [str(h) for h in hops]

    @property
    def first_hop(self) -> str:
        return self.hops[0]

    @property
    def last_hop(self) -> str:
        """The destination's own transport address."""
        return self.hops[-1]

    def _fields(self) -> Sequence[Tuple[str, str]]:
        return (
            ("DstPID", self.dst_peer_id.urn()),
            ("Hops", _HOP_SEPARATOR.join(self.hops)),
        )

    @classmethod
    def _from_fields(cls, fields: dict) -> "RouteAdvertisement":
        return cls(
            dst_peer_id=PeerID.from_urn(fields["DstPID"]),
            hops=fields["Hops"].split(_HOP_SEPARATOR),
        )

    def _unique_key(self) -> str:
        return f"{self.ADV_TYPE}|{self.dst_peer_id.urn()}"
