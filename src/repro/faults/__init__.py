"""Deterministic fault injection and runtime invariant checking.

The paper's conclusion names volatility as the untested dimension of
the LC-DHT's fall-back walker.  ``repro.network.churn`` kills and
revives peers through ad-hoc callbacks; this subpackage turns that
into systematic correctness tooling:

* :mod:`repro.faults.actions` — declarative, schedulable fault actions
  (message loss/duplication/reorder windows, peer crash/restart,
  site-level partitions and heals, clock skew on the
  ``PEERVIEW_INTERVAL`` timers, churn windows) composed into
  :class:`~repro.faults.actions.Scenario` specs;
* :mod:`repro.faults.engine` — a scenario engine that schedules the
  actions on the simulation kernel and a
  :class:`~repro.faults.engine.NetworkFaultController` that applies
  the message-level faults at the :class:`~repro.network.Network`
  layer, drawing only from the sim's named RNG streams so same-seed
  replays are byte-identical;
* :mod:`repro.faults.invariants` — a runtime checker wired into the
  kernel's trace hooks that asserts, after every peerview probe
  round: local peerviews are totally ordered and duplicate-free,
  replica ranks stay within ``[0, l)``, leases never outlive their
  grant, and Property (2) convergence ratios are recorded into a
  timeline tracer for the experiments CLI.

``repro.experiments.faults_exp`` reruns the 45-peer Property-(2)
failure under each fault class using these pieces.
"""

from repro.faults.actions import (
    FAULT_FREE,
    ChurnWindow,
    ClockSkew,
    CorruptPeerView,
    CrashPeer,
    DuplicateWindow,
    FaultAction,
    HealAllSites,
    HealSites,
    LossWindow,
    PartitionSites,
    ReorderWindow,
    RestartPeer,
    Scenario,
)
from repro.faults.engine import (
    FaultContext,
    NetworkFaultController,
    ScenarioEngine,
    peers_of,
)
from repro.faults.invariants import InvariantChecker, Violation

__all__ = [
    "FAULT_FREE",
    "ChurnWindow",
    "ClockSkew",
    "CorruptPeerView",
    "CrashPeer",
    "DuplicateWindow",
    "FaultAction",
    "FaultContext",
    "HealAllSites",
    "HealSites",
    "InvariantChecker",
    "LossWindow",
    "NetworkFaultController",
    "PartitionSites",
    "ReorderWindow",
    "RestartPeer",
    "Scenario",
    "ScenarioEngine",
    "Violation",
    "peers_of",
]
