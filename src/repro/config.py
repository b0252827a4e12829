"""Platform configuration: every tunable the paper names or sweeps.

Defaults follow JXTA-C 2.3 as described in §3.2/§3.3:

* ``PEERVIEW_INTERVAL`` = 30 s — "elapsed time between two iterations
  of the algorithm";
* ``PVE_EXPIRATION`` = 20 min — "default lifetime of rendezvous
  advertisements in the peerview";
* ``HAPPY_SIZE`` = 4 — "configurable minimum threshold";
* SRDI push every 30 s — "JXTA edge peers periodically push tuples of
  updated or new indexes to their rendezvous peers (by default every
  30 seconds)".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

from repro.sim.units import MINUTES, SECONDS


@dataclass(frozen=True)
class PlatformConfig:
    """Immutable per-peer configuration (JXTA's PlatformConfig document).

    Experiments vary a field with :meth:`with_overrides` — e.g. the
    Figure 4 (left) run uses ``pve_expiration > experiment duration``.
    """

    # --- peerview protocol (Algorithm 1) -----------------------------
    peerview_interval: float = 30 * SECONDS
    pve_expiration: float = 20 * MINUTES
    happy_size: int = 4
    #: Stagger of process start times (ADAGE launches peers over a few
    #: seconds; perfectly synchronized loops are an artifact).
    startup_jitter: float = 10 * SECONDS
    #: How long to wait for a probe response before giving up on the
    #: probed peer (bootstrap seeds that are down, crashed referrals).
    probe_timeout: float = 10 * SECONDS
    #: Entries probed per iteration beyond upper/lower.  The paper's
    #: phase-3 analysis attributes the peerview plateau to "the
    #: incapacity of the peerview protocol to probe all the entries of
    #: the peerview in a time shorter than PVE_EXPIRATION": the
    #: protocol refresh-probes members beyond its neighbours, just not
    #: fast enough.  One random member per iteration reproduces the
    #: published plateaus.
    random_probe_count: int = 1
    #: Advertisements carried per referral response.  JXTA peerview
    #: referral messages batch several advertisements; 3 reproduces the
    #: paper's phase-1 growth rates across the tested r values.
    referral_count: int = 3

    # --- rendezvous lease protocol ------------------------------------
    lease_duration: float = 30 * MINUTES
    #: Renew when this fraction of the lease has elapsed.
    lease_renewal_fraction: float = 0.5
    lease_request_timeout: float = 15 * SECONDS

    # --- discovery / SRDI ----------------------------------------------
    srdi_push_interval: float = 30 * SECONDS
    discovery_query_timeout: float = 30 * SECONDS
    #: Per-tuple processing cost on a rendezvous peer when matching a
    #: query against its SRDI store (drives the config-B noise effect:
    #: ~8 µs per stored tuple on 2006-era Opterons doing XML string
    #: comparisons).
    srdi_match_cost: float = 8e-6
    #: Fixed cost of handling one discovery query/publication.
    discovery_proc_cost: float = 0.5e-3

    # --- propagation -----------------------------------------------------
    propagate_ttl: int = 10

    # --- bootstrap --------------------------------------------------------
    #: Transport addresses of seed rendezvous peers.
    seeds: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.peerview_interval <= 0:
            raise ValueError("peerview_interval must be > 0")
        if self.pve_expiration <= 0:
            raise ValueError("pve_expiration must be > 0")
        if self.happy_size < 1:
            raise ValueError("happy_size must be >= 1")
        if not (0 < self.lease_renewal_fraction < 1):
            raise ValueError("lease_renewal_fraction must be in (0, 1)")
        if self.lease_duration <= 0:
            raise ValueError("lease_duration must be > 0")
        if self.propagate_ttl < 1:
            raise ValueError("propagate_ttl must be >= 1")
        if self.random_probe_count < 0:
            raise ValueError("random_probe_count must be >= 0")
        if self.referral_count < 0:
            raise ValueError("referral_count must be >= 0")

    def with_overrides(self, **kwargs) -> "PlatformConfig":
        """Copy with selected fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    def with_seeds(self, seeds: List[str]) -> "PlatformConfig":
        return replace(self, seeds=list(seeds))
