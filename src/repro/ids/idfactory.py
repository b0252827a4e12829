"""Deterministic factory for fresh JXTA IDs.

Real JXTA draws ID UUIDs from the platform RNG; here they come from a
named simulation stream so that a run is reproducible end to end (the
peerview sort order — and therefore every LC-DHT replica choice —
depends on the generated peer IDs).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerGroupID, PeerID, PipeID


class IDFactory:
    """Mints unique IDs from a :class:`random.Random` stream."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._minted: dict[bytes, None] = {}

    def _unique16(self) -> bytes:
        # Collisions are astronomically unlikely, but the retry loop
        # makes uniqueness a hard guarantee within one factory.
        while True:
            value = self._rng.getrandbits(128).to_bytes(16, "big")
            if value not in self._minted:
                self._minted[value] = None
                return value

    def new_peer_id(self, group: Optional[PeerGroupID] = None) -> PeerID:
        return PeerID.from_parts(group or NET_PEER_GROUP_ID, self._unique16())

    def new_pipe_id(self, group: Optional[PeerGroupID] = None) -> PipeID:
        return PipeID.from_parts(group or NET_PEER_GROUP_ID, self._unique16())
