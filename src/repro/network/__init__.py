"""Network substrate: a parameterized model of the Grid'5000 testbed.

The paper runs JXTA-C on the nine sites of Grid'5000 (Bordeaux,
Grenoble, Lille, Lyon, Nancy, Orsay, Rennes, Sophia, Toulouse) linked
by the French NREN (RENATER), with Gigabit Ethernet inside each
cluster.  We cannot use the real testbed, so this subpackage provides
the closest synthetic equivalent: named sites, realistic intra- and
inter-site one-way latencies, bandwidth/serialization delay, jitter,
per-site node placement, churn processes, and traffic accounting.

Both protocols under study are timer- and latency-bound, so a network
model with the right *relative* delays reproduces the paper's effects;
see DESIGN.md §2 for the substitution argument.
"""

from repro.network.churn import (
    ChurnModel,
    ChurnProcess,
    ExponentialChurn,
    ParetoChurn,
)
from repro.network.latency import (
    ConstantLatency,
    Grid5000Latency,
    LatencyModel,
)
from repro.network.message import Envelope
from repro.network.site import GRID5000_SITES, Node, Site, place_nodes
from repro.network.stats import TrafficStats
from repro.network.transport import (
    DeliveryError,
    FaultController,
    FaultDecision,
    Network,
)

__all__ = [
    "ChurnModel",
    "ChurnProcess",
    "ConstantLatency",
    "DeliveryError",
    "Envelope",
    "FaultController",
    "FaultDecision",
    "ExponentialChurn",
    "GRID5000_SITES",
    "Grid5000Latency",
    "LatencyModel",
    "Network",
    "Node",
    "ParetoChurn",
    "Site",
    "TrafficStats",
    "place_nodes",
]
