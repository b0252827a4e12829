"""Layer probes: each layer driven alone through its public API.

Where a traced run says *which share* of a workload a layer costs, a
probe says what one operation of that layer costs at a fixed size, with
nothing else running.  Every value is the median of ``ROUNDS`` rounds;
sizes are fixed here so that numbers from two commits compare.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List

from repro.advertisement.cache import AdvertisementCache
from repro.advertisement.rdvadv import RdvAdvertisement
from repro.advertisement.testadv import FakeAdvertisement
from repro.advertisement.xmlcodec import parse_advertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.discovery.replica import ReplicaFunction
from repro.discovery.srdi import SrdiIndex
from repro.endpoint.service import EndpointMessage
from repro.ids.idfactory import IDFactory
from repro.ids.intern import IdInternTable
from repro.ids.jxtaid import NET_PEER_GROUP_ID
from repro.network import Network
from repro.network.site import GRID5000_SITES, Node
from repro.obs import session as obs_session
from repro.rendezvous.peerview import PeerView
from repro.sim import HOURS, MINUTES, Simulator
from repro.snapshot import restore_network, snapshot_network
from repro.workload.arrivals import make_arrivals
from repro.workload.catalog import Catalog, publish_catalog
from repro.workload.slo import SloTracker

from bench.workloads import OVERLAY_SIZES, SpeedClock, build_scenario

ROUNDS = 5
TIMER_CHAIN = 200_000
PEERVIEW_L = 300
SRDI_TUPLES = 20_000
CACHE_ENTRIES = 5_000


def _median(round_fn: Callable[[], float], rounds: int = ROUNDS) -> float:
    return statistics.median(round_fn() for _ in range(rounds))


def _per_op(fn: Callable[[], None], ops: int) -> float:
    t0 = perf_counter()
    fn()
    return (perf_counter() - t0) / ops


# -- sim ---------------------------------------------------------------------

def _schedule_fire() -> float:
    sim = Simulator(seed=0)
    left = [TIMER_CHAIN]

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            sim.schedule(0.01, tick)

    sim.schedule(0.01, tick)
    return _per_op(sim.run, TIMER_CHAIN)


def _cancel_reschedule() -> float:
    sim = Simulator(seed=0)
    n = 20_000
    handles = [sim.schedule(1.0 + i * 1e-6, int) for i in range(n)]

    def churn() -> None:
        for i, handle in enumerate(handles):
            handle.cancel()
            sim.schedule(2.0 + i * 1e-6, int)

    return _per_op(churn, n)


# -- network / endpoint ------------------------------------------------------

def _send_deliver() -> float:
    sim = Simulator(seed=0)
    network = Network(sim)
    for i, address in enumerate(("tcp://a:1", "tcp://b:1")):
        network.attach(address, Node(i, GRID5000_SITES[i]), lambda env: None)
    n = 10_000

    def pump() -> None:
        send = network.send
        for _ in range(n):
            send("tcp://a:1", "tcp://b:1", None, 512)
        sim.run()

    return _per_op(pump, n)


def _send_to_peer() -> float:
    sim = Simulator(seed=0)
    overlay = build_overlay(
        sim, Network(sim), PlatformConfig(),
        OverlayDescription(rendezvous_count=2),
    )
    a, b = (rdv.endpoint for rdv in overlay.rendezvous)
    a.attach()
    b.attach()
    a.router.add_direct_route(b.peer_id, b.transport_address)
    b.add_listener("bench", "probe", lambda message: None)
    n = 5_000

    def pump() -> None:
        for _ in range(n):
            a.send_to_peer(EndpointMessage(
                src_peer=a.peer_id, dst_peer=b.peer_id,
                service_name="bench", service_param="probe", body="x" * 64,
            ))
        sim.run()

    return _per_op(pump, n)


# -- rendezvous --------------------------------------------------------------

def _peerview(l: int = PEERVIEW_L):
    ids = IDFactory(random.Random(7))
    advs = [
        RdvAdvertisement(ids.new_peer_id(), NET_PEER_GROUP_ID, name=f"rdv-{i}",
                         route_hint=f"tcp://node-{i}:9701")
        for i in range(l + 1)
    ]
    view = PeerView(advs[0])
    for adv in advs[1:]:
        view.upsert(adv, 0.0)
    return view, advs[1:]


def _rendezvous_probes() -> Dict[str, float]:
    view, advs = _peerview()
    rng = random.Random(11)
    clock = [0.0]

    def upsert() -> None:
        clock[0] += 1.0
        now = clock[0]
        for adv in advs:
            view.upsert(adv, now)

    def expire() -> None:
        # every record is stale, every entry fresh: the sweep pops,
        # re-validates and re-pushes all l records and removes none
        upsert()
        t0 = perf_counter()
        view.expire(clock[0] + 0.5, 0.25)
        return perf_counter() - t0

    def ordered() -> None:
        for _ in range(200):
            view.invalidate_ordered_view()
            view.ordered_ids()

    def referrals() -> None:
        for _ in range(2_000):
            view.random_referrals(rng, 3)

    return {
        "rendezvous.peerview_upsert_us":
            1e6 * _median(lambda: _per_op(upsert, len(advs))),
        "rendezvous.peerview_expire_us": 1e6 * _median(expire),
        "rendezvous.ordered_ids_us":
            1e6 * _median(lambda: _per_op(ordered, 200)),
        "rendezvous.referral_sample_us":
            1e6 * _median(lambda: _per_op(referrals, 2_000)),
    }


# -- discovery / advertisement / ids -----------------------------------------

def _tuples(n: int) -> List[tuple]:
    return [(FakeAdvertisement.ADV_TYPE, "Name", f"item-{k}") for k in range(n)]


def _replica_rank() -> float:
    fn = ReplicaFunction()  # fresh: every rank pays its SHA-1 once
    tuples = _tuples(5_000)

    def ranks() -> None:
        for t in tuples:
            fn.rank(t, PEERVIEW_L)

    return _per_op(ranks, len(tuples))


def _srdi_probes() -> Dict[str, float]:
    publisher = IDFactory(random.Random(3)).new_peer_id()
    tuples = _tuples(SRDI_TUPLES)
    adds: List[float] = []
    lookups: List[float] = []
    for _ in range(ROUNDS):
        index = SrdiIndex()

        def add() -> None:
            for t in tuples:
                index.add(t, publisher, "tcp://p:1", 0.0, 3600.0)

        def lookup() -> None:
            for t in tuples:
                index.lookup(t, 1.0)

        adds.append(_per_op(add, SRDI_TUPLES))
        lookups.append(_per_op(lookup, SRDI_TUPLES))
    return {
        "discovery.srdi_add_us": 1e6 * statistics.median(adds),
        "discovery.srdi_lookup_us": 1e6 * statistics.median(lookups),
    }


def _cache_probes() -> Dict[str, float]:
    advs = [FakeAdvertisement(f"item-{k}", "x" * 64) for k in range(CACHE_ENTRIES)]
    publishes: List[float] = []
    searches: List[float] = []
    for _ in range(ROUNDS):
        cache = AdvertisementCache()

        def publish() -> None:
            for adv in advs:
                cache.publish(adv, 0.0)

        def search() -> None:
            for adv in advs:
                cache.search(adv.ADV_TYPE, "Name", adv.name, 1.0, limit=1)

        publishes.append(_per_op(publish, CACHE_ENTRIES))
        searches.append(_per_op(search, CACHE_ENTRIES))

    def roundtrip() -> None:
        for adv in advs[:500]:
            parse_advertisement(adv.to_xml())

    return {
        "advertisement.cache_publish_us": 1e6 * statistics.median(publishes),
        "advertisement.cache_search_us": 1e6 * statistics.median(searches),
        "advertisement.xml_roundtrip_us":
            1e6 * _median(lambda: _per_op(roundtrip, 500)),
    }


def _intern() -> float:
    ids = IDFactory(random.Random(5))
    peers = [ids.new_peer_id() for _ in range(1_000)]
    table = IdInternTable()

    def intern() -> None:
        for _ in range(50):
            for peer in peers:
                table.intern(peer)

    return _per_op(intern, 50 * len(peers))


# -- workload ----------------------------------------------------------------

def _arrivals() -> float:
    process = make_arrivals({"kind": "poisson", "rate": 100.0})
    rng = random.Random(13)
    t0 = perf_counter()
    n = sum(1 for _ in process.iter_times(rng, 0.0, 1_000.0))
    return n / (perf_counter() - t0)


def _slo_record() -> float:
    slo = SloTracker()
    n = 50_000

    def record() -> None:
        for i in range(n):
            slo.record_success("probe", "query", 0.001 * (i % 97))

    return _per_op(record, n)


# -- snapshot ----------------------------------------------------------------

def _snapshot_probes() -> Dict[str, float]:
    """Snapshot and restore of a warmed discovery-walk overlay (r = 150
    plus its 42 edges, catalog indexed, 20 simulated minutes)."""
    sizes = OVERLAY_SIZES["discovery-walk"]
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, sizes.config,
        OverlayDescription(rendezvous_count=sizes.r, edge_count=42),
    )
    overlay.start()
    sim.run(until=2 * MINUTES)
    publish_catalog(
        overlay.edges[:2], Catalog.from_spec(sizes.clients["catalog"]),
        12 * HOURS,
    )
    sim.run(until=20 * MINUTES)
    snaps: List[float] = []
    restores: List[float] = []
    blob = b""
    for _ in range(3):
        t0 = perf_counter()
        blob = snapshot_network(network, extra={"overlay": overlay})
        t1 = perf_counter()
        restore_network(blob)
        restores.append(perf_counter() - t1)
        snaps.append(t1 - t0)
    return {
        "snapshot.snapshot_ms": 1e3 * statistics.median(snaps),
        "snapshot.restore_ms": 1e3 * statistics.median(restores),
        "snapshot.blob_mb": len(blob) / 1e6,
    }


# -- obs ---------------------------------------------------------------------

def _obs_probes() -> Dict[str, float]:
    """Cost of the observability hub on discovery-flat: three copies of
    the overlay (no hub, hub attached but disabled, metrics on) advance
    through the same units in turn; recording never perturbs the run,
    so unit i does identical simulated work in all three."""
    flat = OVERLAY_SIZES["discovery-flat"]
    sizes = replace(
        flat, warmup=12 * MINUTES, unit=1.0, units=12,
        clients=dict(flat.clients, seed_time=10 * MINUTES),
    )
    base = build_scenario(sizes, 1, 10)
    with obs_session(metrics=True):
        disabled = build_scenario(sizes, 1, 10)
        metrics = build_scenario(sizes, 1, 10)
    disabled.network.obs.disable()
    copies = [("base", base), ("disabled", disabled), ("metrics", metrics)]
    clock = SpeedClock()
    ratios: Dict[str, List[float]] = {"disabled": [], "metrics": []}
    for i, until in enumerate(base.edges[:-1]):
        walls = {}
        # rotate who goes first: the first copy to run pays for the
        # caches the others then find warm
        for mode, sc in copies[i % 3:] + copies[:i % 3]:
            _, _, walls[mode] = clock.measure(lambda: sc.sim.run(until=until))
        for mode in ratios:
            ratios[mode].append(walls[mode] / walls["base"])
    return {
        "obs.attached_disabled_overhead_pct":
            100.0 * (statistics.median(ratios["disabled"]) - 1.0),
        "obs.metrics_on_overhead_pct":
            100.0 * (statistics.median(ratios["metrics"]) - 1.0),
    }


def run_probes() -> Dict[str, float]:
    out = {
        "sim.schedule_fire_ns": 1e9 * _median(_schedule_fire),
        "sim.cancel_reschedule_ns": 1e9 * _median(_cancel_reschedule),
        "network.send_deliver_us": 1e6 * _median(_send_deliver),
        "endpoint.send_to_peer_us": 1e6 * _median(_send_to_peer),
        "discovery.replica_rank_us": 1e6 * _median(_replica_rank),
        "ids.intern_ns": 1e9 * _median(_intern),
        "workload.arrivals_per_s": _median(_arrivals),
        "workload.slo_record_ns": 1e9 * _median(_slo_record),
    }
    out.update(_rendezvous_probes())
    out.update(_srdi_probes())
    out.update(_cache_probes())
    out.update(_snapshot_probes())
    out.update(_obs_probes())
    return out
