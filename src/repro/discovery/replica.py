"""The ReplicaPeer function of the LC-DHT.

From §3.3::

    Function ReplicaPeer(tuple) applied by peer Ri member of S:
        hash = SHA-1(tuple)
        pos  = floor(hash * l_i / MAX_HASH)
        return peerview entry at position pos

"The hash is actually applied on a string obtained by concatenating
the type of the advertisement, the name of the attribute used for
indexing and its value" — e.g. ``"PeerNameTest"`` hashes the paper's
worked example (peer advertisement, attribute ``Name``, value
``Test``).

The hash function and ``MAX_HASH`` are injectable so that Table 1's
didactic numbers (hash value 116, MAX_HASH 200, replica rank 3) can be
reproduced exactly; the default is real SHA-1 with
``MAX_HASH = 2**160``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

from repro.advertisement.base import IndexTuple

#: SHA-1 output space.
SHA1_MAX_HASH = 2**160


def index_tuple_key(index_tuple: IndexTuple) -> str:
    """The concatenated string the LC-DHT hashes.

    The paper's example concatenates the advertisement *type* (the
    resource kind, "Peer"), the index attribute name and its value:
    ``"Peer" + "Name" + "Test" = "PeerNameTest"``.  We use the full
    JXTA document type (``jxta:PA``) as the type component.
    """
    adv_type, attribute, value = index_tuple
    return f"{adv_type}{attribute}{value}"


def sha1_hash(key: str) -> int:
    """SHA-1 of the tuple key as an unsigned integer."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest(), "big")


class ReplicaFunction:
    """Maps index tuples onto peerview ranks."""

    def __init__(
        self,
        max_hash: int = SHA1_MAX_HASH,
        hash_fn: Optional[Callable[[str], int]] = None,
    ) -> None:
        if max_hash <= 0:
            raise ValueError(f"max_hash must be > 0 (got {max_hash})")
        self.max_hash = max_hash
        self.hash_fn = hash_fn if hash_fn is not None else sha1_hash
        #: tuple -> hash memo: a replica rank is recomputed for the
        #: same tuple on every SRDI push/query, and the hash (a SHA-1
        #: over the concatenated key) never changes for a tuple
        self._memo: dict = {}

    def hash_value(self, index_tuple: IndexTuple) -> int:
        """The (possibly injected) hash of a tuple's key string.
        Memoised per tuple — the hash is pure in the tuple."""
        value = self._memo.get(index_tuple)
        if value is None:
            value = self.hash_fn(index_tuple_key(index_tuple))
            if not (0 <= value < self.max_hash):
                raise ValueError(
                    f"hash {value} outside [0, MAX_HASH={self.max_hash})"
                )
            self._memo[index_tuple] = value
        return value

    def rank(self, index_tuple: IndexTuple, member_count: int) -> int:
        """``pos = floor(hash * l / MAX_HASH)`` for a peerview with
        ``member_count`` ordered members."""
        if member_count <= 0:
            raise ValueError(
                f"member_count must be > 0 (got {member_count})"
            )
        # the memo read in place: every replica-routed query and every
        # replicated tuple ranks a tuple hashed before
        value = self._memo.get(index_tuple)
        if value is None:
            value = self.hash_value(index_tuple)
        return value * member_count // self.max_hash
