"""Wire envelope carried by the network substrate.

The network layer treats protocol payloads as opaque; only the source
and destination transport addresses and the byte size matter for
delivery.  Higher layers (``repro.endpoint``) put structured JXTA
messages inside.
"""

from __future__ import annotations

from typing import Any


class Envelope:
    """One message in flight between two transport addresses.

    A plain slots class rather than a dataclass: one envelope is built
    per :meth:`repro.network.transport.Network.send`, and the generated
    ``__init__`` + ``default_factory`` + ``__post_init__`` trio showed
    up in the protocol-stack profile.
    """

    __slots__ = ("src", "dst", "payload", "size_bytes")

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: int = 512,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be > 0 (got {size_bytes})")
        self.src = src
        self.dst = dst
        #: Opaque protocol payload (an EndpointMessage in practice).
        self.payload = payload
        #: Serialized size in bytes; drives the bandwidth term of the
        #: delivery delay.  Payloads that know their size (JXTA
        #: messages) report it; otherwise callers pass an estimate.
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Envelope({self.src} -> {self.dst}, {self.size_bytes}B)"
