"""XML advertisements.

"An *advertisement* is an XML document describing a resource" (§3.1).
Every resource a JXTA peer publishes or discovers — peers, rendezvous
peers, pipes — is described by an advertisement.  Each
advertisement type declares the attributes by which its instances are
indexed; those ``(type, attribute, value)`` tuples are what the SRDI /
LC-DHT machinery of :mod:`repro.discovery` replicates and queries.

This subpackage provides the advertisement class hierarchy, a real XML
codec (documents round-trip through ``xml.etree``), and the local
advertisement cache (JXTA-C's "CM", content manager) with lifetime and
expiration semantics.
"""

from repro.advertisement.base import (
    Advertisement,
    DEFAULT_EXPIRATION,
    DEFAULT_LIFETIME,
    IndexTuple,
)
from repro.advertisement.cache import AdvertisementCache, CacheEntry
from repro.advertisement.peeradv import PeerAdvertisement
from repro.advertisement.pipeadv import PipeAdvertisement
from repro.advertisement.rdvadv import RdvAdvertisement
from repro.advertisement.testadv import FakeAdvertisement
from repro.advertisement.xmlcodec import (
    UnknownAdvertisementType,
    parse_advertisement,
    register_advertisement_type,
)

__all__ = [
    "Advertisement",
    "AdvertisementCache",
    "CacheEntry",
    "DEFAULT_EXPIRATION",
    "DEFAULT_LIFETIME",
    "FakeAdvertisement",
    "IndexTuple",
    "PeerAdvertisement",
    "PipeAdvertisement",
    "RdvAdvertisement",
    "UnknownAdvertisementType",
    "parse_advertisement",
    "register_advertisement_type",
]
