"""Integration: the peerview churn regime is pinned by a digest.

The benchmark's ``peerview-580`` workload (``bench/README.md``) is
where a host-only change to what a view entry or an add/remove costs is
measured, under the rule that no simulated event, message, RNG draw,
listener call or *removal order* moves.  This is that regime at tier-1
size: 40 rendezvous on a chain with ``pve_expiration = 90 s``, so
entries expire faster than Algorithm 1 re-probes them and every view
plateaus below r − 1 (mean l ≈ 26 of 39) while adding and removing
constantly.

Beyond the kernel/network counters the digest covers the full ordered
per-view listener log — ``(view, time, kind, subject, reason)`` — so the
order of removals *inside* one expiry sweep is pinned too (fig3-right's
event log and the obs timeline observe it).

The digest below was generated at the commit *before* the shared
ordering tokens (PR 16) and must be reproduced by both schedulers with
and without object pooling.
"""

import hashlib
import json

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import MINUTES, Simulator

R = 40
CHURN_DIGEST = (
    "a8bd0235b1cc27541408f3d596bab9e3213c0437ecca3f2d5c88d0422e00aeea"
)
#: a run that stopped expiring entries would pin nothing
MIN_REMOVES = 1000


def _run_churn(scheduler: str, pooling: bool):
    sim = Simulator(seed=1, scheduler=scheduler)
    network = Network(sim, pooling=pooling)
    overlay = build_overlay(
        sim, network,
        PlatformConfig().with_overrides(pve_expiration=90.0),
        OverlayDescription(rendezvous_count=R, topology="chain"),
    )
    log = []
    for index, rdv in enumerate(overlay.rendezvous):
        rdv.view.add_listener(lambda event, index=index: log.append((
            index, event.time, event.kind, str(event.subject), event.reason,
        )))
    overlay.start()
    sim.run(until=8 * MINUTES)

    views = [r.view for r in overlay.rendezvous]
    digest = hashlib.sha256(json.dumps({
        "events_fired": sim.events_fired,
        "stats": network.stats.snapshot(),
        "views": [(v.size, v.adds, v.removes) for v in views],
        "log": log,
    }, sort_keys=True, default=str).encode()).hexdigest()
    return digest, views


@pytest.mark.parametrize("pooling", [True, False], ids=["pooled", "unpooled"])
@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
def test_churn_digest_is_pinned(scheduler, pooling):
    digest, views = _run_churn(scheduler, pooling)
    # the regime first: a digest of a run without churn would pin nothing
    assert sum(v.removes for v in views) > MIN_REMOVES
    assert sum(v.size for v in views) / R < R - 1
    assert digest == CHURN_DIGEST
