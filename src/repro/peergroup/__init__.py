"""Peer assembly: complete JXTA peers and overlays.

"In current implementations (JXTA-C or JXTA-J2SE), a JXTA overlay is
a structured network based on the use of mainly two peer types:
super-peers, commonly rendezvous peers, and regular peers, called edge
peers.  Each edge peer is attached to a rendezvous peer" (§3.1).

:class:`EdgePeer` and :class:`RendezvousPeer` wire the full Figure 1
stack together (endpoint + ERP, resolver, rendezvous sub-protocols,
discovery/LC-DHT); :class:`PeerGroup` is the overlay
``S = {Ri} ∪ {Ej}``.
"""

from repro.peergroup.group import PeerGroup
from repro.peergroup.peer import EdgePeer, Peer, RendezvousPeer

__all__ = [
    "EdgePeer",
    "Peer",
    "PeerGroup",
    "RendezvousPeer",
]
