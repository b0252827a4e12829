"""Endpoint layer: addressing, message demux, and ERP routing.

Figure 1 of the paper places the *endpoint routing protocol* (ERP)
directly above the physical transport: "the endpoint routing protocol
is used to find available routes from a source peer to a destination
peer".  This subpackage provides:

* :class:`EndpointService` — per-peer demultiplexer binding service
  listeners and sending :class:`EndpointMessage` objects through the
  simulated network;
* :class:`EndpointRouter` — the ERP, owned by the service: a route
  table mapping peer IDs to next-hop transport addresses, hop-by-hop
  forwarding with TTL, and reverse-route learning.
"""

from repro.endpoint.router import EndpointRouter
from repro.endpoint.service import (
    EndpointListener,
    EndpointMessage,
    EndpointService,
)

__all__ = [
    "EndpointListener",
    "EndpointMessage",
    "EndpointRouter",
    "EndpointService",
]
