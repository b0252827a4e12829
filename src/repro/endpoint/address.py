"""Endpoint addresses.

JXTA endpoint addresses take the form
``<protocol>://<protocol-address>/<service name>/<service param>``.
Two protocols appear here:

* ``tcp`` — a transport address bound on the simulated network
  (``tcp://rennes-3:9701``);
* ``jxta`` — a peer-relative address whose protocol-address is the
  peer ID's unique part (resolved to a transport address by ERP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EndpointAddress:
    """Parsed endpoint address."""

    protocol: str
    host: str
    service_name: str = ""
    service_param: str = ""

    def __post_init__(self) -> None:
        if not self.protocol:
            raise ValueError("endpoint address needs a protocol")
        if not self.host:
            raise ValueError("endpoint address needs a protocol address")

    @classmethod
    def parse(cls, text: str) -> "EndpointAddress":
        """Parse ``proto://host[/service[/param]]``."""
        if "://" not in text:
            raise ValueError(f"not an endpoint address: {text!r}")
        protocol, rest = text.split("://", 1)
        parts = rest.split("/", 2)
        host = parts[0]
        service = parts[1] if len(parts) > 1 else ""
        param = parts[2] if len(parts) > 2 else ""
        return cls(protocol, host, service, param)

    @property
    def transport_part(self) -> str:
        """The ``proto://host`` prefix (what the network layer routes on)."""
        return f"{self.protocol}://{self.host}"

    def __str__(self) -> str:
        out = self.transport_part
        if self.service_name:
            out += f"/{self.service_name}"
            if self.service_param:
                out += f"/{self.service_param}"
        return out


def tcp_address(hostname: str, port: int) -> str:
    """Build a transport address string for a peer bound on a node."""
    if port <= 0:
        raise ValueError(f"port must be > 0 (got {port})")
    return f"tcp://{hostname}:{port}"
