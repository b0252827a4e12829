"""Bench: the wall time of three complexity properties tier-1 counts.

Tier-1 asserts each of these as a count of work, which holds at any box
speed (``tests/unit/test_srdi.py``,
``tests/properties/test_prop_cache_index.py``,
``tests/integration/test_campaign_warmstart.py``).  What that work
costs in seconds is a trajectory number, so it is measured here:

* ``test_srdi_purge_one_publisher``: an SRDI index of 30 000 tuples from
  three publishers, one of whose ≥ 10 000 records all expire — the
  purge rebuilds that one publisher's list;
* ``test_cache_large_bucket``: 10 000 documents sharing one indexed
  value, published one by one and removed newest first;
* ``test_campaign_warm_start``: a four-task load campaign whose tasks
  share one bootstrap, warm-started (one build, three restores);
  ``extra_info`` carries the cold run's wall and the warm/cold ratio.
"""

import time

from repro.advertisement import AdvertisementCache
from repro.advertisement.rdvadv import RdvAdvertisement
from repro.campaign import CampaignRunner, CampaignSpec, RunnerOptions, RunStore
from repro.campaign.progress import ProgressReporter
from repro.discovery.srdi import SrdiIndex
from repro.ids import NET_PEER_GROUP_ID, PeerID

N = 10_000


def _pid(n):
    return PeerID.from_int(NET_PEER_GROUP_ID, n)


def test_srdi_purge_one_publisher(benchmark):
    def build():
        idx = SrdiIndex()
        for i in range(3 * N):
            for p in (0, 1, 2) if i % 10 == 0 else (i % 3,):
                idx.add(("jxta:PA", "Name", f"t{i}"), _pid(p), "tcp://a:1",
                        0.0, 10.0 if p == 2 else 100.0)
        return (idx,), {}

    dropped = benchmark.pedantic(
        lambda idx: idx.purge_expired(now=50.0), setup=build, rounds=5,
    )
    assert dropped >= N


def test_cache_large_bucket(benchmark):
    advs = [
        RdvAdvertisement(rdv_peer_id=_pid(i), group_id=NET_PEER_GROUP_ID,
                         name="shared")
        for i in range(N)
    ]

    def build_and_drain():
        cache = AdvertisementCache()
        for adv in advs:
            cache.publish(adv, 0.0)
        for adv in reversed(advs):
            cache.remove(adv)
        return cache

    cache = benchmark.pedantic(build_and_drain, rounds=5, iterations=1)
    assert len(cache) == 0


def _run_campaign(root, warm_dir=None):
    spec = CampaignSpec(
        name="load", task_type="load",
        grid={"rate": [1.0, 2.0], "skew": [0.0, 1.0], "seed": [1]},
        base={
            "r": 24, "duration": 5.0, "warmup": 3600.0,
            "queriers": 4, "publishers": 2, "catalog_size": 40,
        },
    )
    return CampaignRunner(
        spec, RunStore(root),
        RunnerOptions(
            jobs=1, checkpoint_dir=str(warm_dir) if warm_dir else None,
        ),
        progress=ProgressReporter(total=0, jobs=1, enabled=False),
    ).run(resume=False)


def test_campaign_warm_start(run_once, benchmark, tmp_path):
    started = time.perf_counter()
    _run_campaign(tmp_path / "cold")
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    manifest = run_once(
        _run_campaign, tmp_path / "warm", warm_dir=tmp_path / "ckpts"
    )
    warm_s = time.perf_counter() - started
    assert (manifest["checkpoint_hits"], manifest["checkpoint_misses"]) == (3, 1)
    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_over_cold"] = round(warm_s / cold_s, 3)
