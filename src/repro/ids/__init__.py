"""JXTA identifiers.

JXTA names every resource (peers, peer groups, pipes, modules) with a
URN of the ``uuid`` ID format, e.g.::

    urn:jxta:uuid-59616261646162614E50472050325033...03

The parts that matter for the paper's protocols are:

* IDs embed the parent *peer group* UUID, so an ID is meaningful only
  within its group;
* peer IDs have a **total order** (byte-wise lexicographic) — the
  peerview is "an ordered list (by peer ID) of peers currently acting
  as rendezvous" and the LC-DHT replica function maps hash values onto
  *ranks* in that order;
* IDs are unique and randomly generated, so ranks are uniform.
"""

from repro.ids.idfactory import IDFactory
from repro.ids.intern import IdInternTable
from repro.ids.jxtaid import (
    ID_FORMAT,
    JxtaID,
    PeerGroupID,
    PeerID,
    PipeID,
    NET_PEER_GROUP_ID,
    WORLD_PEER_GROUP_ID,
)

__all__ = [
    "ID_FORMAT",
    "IDFactory",
    "IdInternTable",
    "JxtaID",
    "NET_PEER_GROUP_ID",
    "PeerGroupID",
    "PeerID",
    "PipeID",
    "WORLD_PEER_GROUP_ID",
]
