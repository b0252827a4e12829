"""Transport addresses: ``tcp://<host>:<port>``, bound on the
simulated network (``tcp://rennes-3:9701``)."""

from __future__ import annotations


def tcp_address(hostname: str, port: int) -> str:
    """Build a transport address string for a peer bound on a node."""
    if port <= 0:
        raise ValueError(f"port must be > 0 (got {port})")
    return f"tcp://{hostname}:{port}"
