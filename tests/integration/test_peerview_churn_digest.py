"""Integration: the peerview churn regime is pinned by two digests.

The benchmark's ``peerview-580`` workload (``bench/README.md``) is
where a host-only change to what a view entry or an add/remove costs is
measured, under the rule that no simulated event, message, RNG draw or
listener call moves.  This is that regime at tier-1 size: 40
rendezvous on a chain with ``pve_expiration = 90 s``, so entries expire
faster than Algorithm 1 re-probes them and every view plateaus below
r − 1 (mean l ≈ 26 of 39) while adding and removing constantly.

Beyond the kernel/network counters both digests cover the per-view
listener log — ``(view, time, kind, subject, reason)``:

* ``CHURN_DIGEST_BY_SUBJECT`` sorts each ``(view, time)`` run of the
  log by subject, so it pins *what* every sweep removes and when, but
  not the order inside one sweep.  It was generated before view entries
  were kept in refresh order and has held across that change;
* ``CHURN_DIGEST`` pins the log as emitted, so the order of removals
  *inside* one expiry sweep is pinned too (fig3-right's event log and
  the obs timeline observe it).  Within one sweep, removal order is
  oldest refresh first, ties in the order the refreshes happened.

Both must still be reproduced.
"""

import functools
import hashlib
import itertools
import json

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import MINUTES, Simulator

R = 40
CHURN_DIGEST = (
    "72c310d8e77a2f1b9c96a8ce5dfa824d6344cdd9905da00505d2f9602d47038c"
)
CHURN_DIGEST_BY_SUBJECT = (
    "29f2e7023f3dbed86823adbab210dfe74463510eadba080c3ba34c3553a3e2fc"
)
#: a run that stopped expiring entries would pin nothing
MIN_REMOVES = 1000


def _digest(state, log):
    return hashlib.sha256(json.dumps(
        dict(state, log=log), sort_keys=True, default=str
    ).encode()).hexdigest()


def _run_churn():
    sim = Simulator(seed=1)
    network = Network(sim)
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
    state = {
        "events_fired": sim.events_fired,
        "stats": network.stats.snapshot(),
        "views": [(v.size, v.adds, v.removes) for v in views],
    }
    by_subject = [
        record
        for _, run in itertools.groupby(log, key=lambda record: record[:2])
        for record in sorted(run, key=lambda record: record[3])
    ]
    return _digest(state, log), _digest(state, by_subject), views


# The ids name the two send paths and the two schedulers the digest was
# pinned under while object pools and the timer wheel existed.  There is one
# path and one event heap now, so the four ids read one run.
_run_once = functools.cache(_run_churn)


@pytest.mark.parametrize("path", ["pooled", "unpooled"])
@pytest.mark.parametrize("repeat", ["wheel", "heap"])
def test_churn_digest_is_pinned(repeat, path):
    digest, by_subject, views = _run_once()
    # the regime first: a digest of a run without churn would pin nothing
    assert sum(v.removes for v in views) > MIN_REMOVES
    assert sum(v.size for v in views) / R < R - 1
    assert by_subject == CHURN_DIGEST_BY_SUBJECT
    assert digest == CHURN_DIGEST
