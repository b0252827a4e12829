"""Rendezvous protocol wire messages.

Peerview messages carry rendezvous advertisements (§3.2: "A probe is a
peerview message that contains a rendezvous advertisement describing
the sender").  Lease messages implement the edge subscription
handshake.  :class:`PropagatedMessage` wraps a payload (typically a
resolver query) for group-wide propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids.jxtaid import PeerID

_PV_OVERHEAD = 150


@dataclass(slots=True)
class PeerViewProbe:
    """Active probe: sender expects a response (and, unless this is a
    referral-verification probe, a referral)."""

    rdv_adv: RdvAdvertisement
    #: False for verification probes of referred peers: the prober only
    #: confirms liveness before adding the entry, it is not soliciting
    #: further referrals (this bounds the referral cascade to depth 1).
    want_referral: bool = True

    def size_bytes(self) -> int:
        return _PV_OVERHEAD + self.rdv_adv.size_bytes()


@dataclass(slots=True)
class PeerViewUpdate:
    """Passive entry refresh ("update our entry in the peerview of
    rdv", Algorithm 1 line 10): no response expected."""

    rdv_adv: RdvAdvertisement

    def size_bytes(self) -> int:
        return _PV_OVERHEAD + self.rdv_adv.size_bytes()


@dataclass(slots=True)
class PeerViewResponse:
    """Probe response carrying the receiver's own advertisement."""

    rdv_adv: RdvAdvertisement

    def size_bytes(self) -> int:
        return _PV_OVERHEAD + self.rdv_adv.size_bytes()


@dataclass(slots=True)
class PeerViewReferral:
    """Separate referral response: randomly chosen rendezvous
    advertisements for other rendezvous peers in the responder's list
    (§3.2; peerview referral messages batch a few advertisements)."""

    rdv_advs: List[RdvAdvertisement]

    def size_bytes(self) -> int:
        return _PV_OVERHEAD + sum(a.size_bytes() for a in self.rdv_advs)


@dataclass(slots=True)
class LeaseRequest:
    """Edge asks a rendezvous for (or renews) a lease."""

    edge_peer: PeerID
    edge_address: str
    renewal: bool = False

    def size_bytes(self) -> int:
        return 300


@dataclass(slots=True)
class LeaseGrant:
    """Rendezvous accepts an edge for ``lease_duration`` seconds."""

    rdv_adv: RdvAdvertisement
    lease_duration: float

    def size_bytes(self) -> int:
        return _PV_OVERHEAD + self.rdv_adv.size_bytes()


@dataclass(slots=True)
class LeaseCancel:
    """Edge departs (or rendezvous evicts an edge)."""

    peer: PeerID

    def size_bytes(self) -> int:
        return 200


@dataclass(slots=True)
class PropagatedMessage:
    """Group-propagation wrapper (rendezvous propagation protocol).

    ``visited`` carries the rendezvous peers that already handled the
    message, as the network interner's keys, bounding the flood; ``ttl``
    bounds path length.
    """

    payload: Any
    ttl: int
    visited: List[int] = field(default_factory=list)

    def size_bytes(self) -> int:
        inner = getattr(self.payload, "size_bytes", None)
        if callable(inner):
            inner_size = int(inner())
        elif isinstance(self.payload, (str, bytes)):
            inner_size = len(self.payload)
        else:
            inner_size = 256
        return 120 + 34 * len(self.visited) + inner_size
