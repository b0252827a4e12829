"""Properties of the per-hop copies on the discovery query path.

A discovery query is compiled once (:class:`DiscoveryQueryPayload`
derives its glob/range flags, index tuple and wire size at
construction) and copied once per hop (``payload.routed`` for the
routing state, ``ResolverQuery.hopped(payload)`` for the hop counter).
Both copies bypass the constructors' derivations, so they are checked
here against the constructors themselves — and against the two-copy
``_with_routing`` + ``hopped()`` pair they replaced.

A walk hop also reads its next target with one bisect
(``PeerView.neighbor_key``) and forwards through
``ResolverService.forward_query``, which builds the hopped query in
place and shares the origin's ``src_route``; both are held here to the
code they replaced.

A flat lookup's hit reads each match's expiration off the cache's
entries in place (no ``AdvertisementCache.get``), and its two
single-hop route installs go through ``EndpointRouter.add_direct_route``
(no ``add_route`` → ``intern`` → ``_get`` → ``_set``); both are held
here to the calls they replaced.
"""

import bisect
import pickle
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.advertisement.base import DEFAULT_EXPIRATION
from repro.advertisement.cache import AdvertisementCache, has_glob
from repro.advertisement.rdvadv import RdvAdvertisement
from repro.advertisement.testadv import FakeAdvertisement
from repro.config import PlatformConfig
from repro.discovery.rangequery import is_range_query, range_spec
from repro.discovery.service import (
    DISCOVERY_HANDLER_NAME,
    DiscoveryQueryPayload,
    DiscoveryService,
)
from repro.discovery.walker import WALK_DOWN, WALK_NONE, WALK_UP
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.rendezvous.peerview import PeerView
from repro.resolver import QueryHandler, ResolverService
from repro.resolver.messages import ResolverQuery
from tests.unit.test_endpoint import build_peers

bounds = st.floats(-1e6, 1e6, allow_nan=False)
values = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="ab*?[]!-1.", max_size=8),
    st.sampled_from(["", "*", "item-7", "sensor-[12]2", "a?c", "1..", "..", "3..1"]),
    st.tuples(bounds, bounds).map(lambda b: range_spec(min(b), max(b))),
)
payloads = st.builds(
    DiscoveryQueryPayload,
    adv_type=st.sampled_from(["", "repro:FakeAdvertisement", "jxta:PA"]),
    attribute=st.sampled_from(["", "Name", "size"]),
    value=values,
    threshold=st.integers(0, 5),
    at_replica=st.booleans(),
    walk_direction=st.sampled_from([WALK_NONE, WALK_UP, WALK_DOWN]),
)
routings = st.tuples(
    st.booleans(), st.sampled_from([WALK_NONE, WALK_UP, WALK_DOWN])
)
queries = st.builds(
    ResolverQuery,
    handler_name=st.sampled_from(["jxta.service.discovery", "h"]),
    query_id=st.integers(1, 10**6),
    src_peer=st.integers(1, 50).map(
        lambda n: PeerID.from_int(NET_PEER_GROUP_ID, n)
    ),
    src_route=st.lists(st.sampled_from(["tcp://a:1", "tcp://b:2"]), max_size=3),
    payload=payloads,
    hop_count=st.integers(0, 40),
)


def _field_values(obj):
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def old_with_routing_then_hopped(query, payload, at_replica, walk_direction):
    """What one forward built before the copies were folded: the
    deleted ``DiscoveryService._with_routing`` followed by the
    payload-less ``hopped()``, verbatim."""
    new_payload = DiscoveryQueryPayload(
        adv_type=payload.adv_type,
        attribute=payload.attribute,
        value=payload.value,
        threshold=payload.threshold,
        at_replica=at_replica,
        walk_direction=walk_direction,
    )
    routed = ResolverQuery(
        handler_name=query.handler_name,
        query_id=query.query_id,
        src_peer=query.src_peer,
        src_route=list(query.src_route),
        payload=new_payload,
        hop_count=query.hop_count,
    )
    return ResolverQuery(
        handler_name=routed.handler_name,
        query_id=routed.query_id,
        src_peer=routed.src_peer,
        src_route=list(routed.src_route),
        payload=routed.payload,
        hop_count=routed.hop_count + 1,
    )


@given(payloads)
def test_derived_fields_are_the_per_call_derivations(payload):
    value = payload.value
    # has_glob is a pattern's search (a match or None); the flags are
    # stored as bools, so payloads pickle the same bytes as before
    assert payload.is_wildcard is bool(has_glob(value))
    assert payload.is_range is is_range_query(value)
    assert payload.is_complex is (
        bool(has_glob(value)) or is_range_query(value)
    )
    assert payload.index_tuple == (payload.adv_type, payload.attribute, value)
    assert payload.size_bytes() == payload.wire_size == (
        220 + len(payload.adv_type) + len(payload.attribute) + len(value)
    )


@given(payloads, routings)
def test_routed_equals_a_fresh_construction(payload, routing):
    at_replica, walk_direction = routing
    before = _field_values(payload)
    routed = payload.routed(at_replica, walk_direction)
    fresh = DiscoveryQueryPayload(
        payload.adv_type, payload.attribute, payload.value,
        payload.threshold, at_replica=at_replica,
        walk_direction=walk_direction,
    )
    assert routed is not payload
    assert routed == fresh
    assert _field_values(routed) == _field_values(fresh)
    assert pickle.dumps(routed) == pickle.dumps(fresh)
    assert _field_values(payload) == before  # the original is not touched


@given(queries, routings)
def test_hopped_with_payload_equals_the_old_two_copies(query, routing):
    payload = query.payload
    want = old_with_routing_then_hopped(query, payload, *routing)
    got = query.hopped(payload.routed(*routing))
    assert _field_values(got) == _field_values(want)
    assert got.size_bytes() == want.size_bytes()
    # own route list: a responder installing it must not alias the
    # sender's copy
    assert got.src_route is not query.src_route
    assert got.payload is not payload


@given(queries)
def test_hopped_without_payload_keeps_the_body(query):
    hopped = query.hopped()
    assert hopped.payload is query.payload
    assert hopped.hop_count == query.hop_count + 1
    assert hopped.src_route == query.src_route
    assert hopped.src_route is not query.src_route


@settings(max_examples=60)
@given(queries, routings)
def test_pickles_are_byte_stable_across_a_round_trip(query, routing):
    for obj in (
        query.payload,
        query.payload.routed(*routing),
        query,
        query.hopped(query.payload.routed(*routing)),
    ):
        blob = pickle.dumps(obj)
        clone = pickle.loads(blob)
        assert clone == obj
        assert _field_values(clone) == _field_values(obj)
        assert pickle.dumps(clone) == blob


def _rdv(n):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        route_hint=f"tcp://host-{n}:9701",
    )


def old_neighbor_key(view, direction):
    """The deleted rank path, verbatim in effect: ``local_rank()`` via
    ``rank_of``'s ``(value,)`` probe, then the entry beside it."""
    order = view._order
    rank = bisect.bisect_left(order, (view.local_peer_id._value,))
    assert order[rank][0] == view.local_peer_id._value
    target = rank + direction
    if 0 <= target < len(order):
        return order[target][1]
    return None


#: where the local peer's ID falls among the members: below all, above
#: all, or anywhere (the set may also be empty: a self-only view)
LOCALS = {"bottom": 0, "top": 1000, "inside": 500}


@given(
    st.sampled_from(sorted(LOCALS)),
    st.sets(st.integers(1, 999).filter(lambda n: n != 500), max_size=40),
    st.sets(st.integers(1, 999), max_size=10),
)
@example("inside", set(), set())  # self-only view
@example("bottom", {7}, set())
@example("top", {7}, set())
def test_neighbor_key_is_the_rank_based_answer(where, members, removed):
    view = PeerView(_rdv(LOCALS[where]))
    for n in sorted(members):
        view.upsert(_rdv(n), 0.0)
    for n in sorted(removed):
        view.remove(PeerID.from_int(NET_PEER_GROUP_ID, n), 1.0)
    for direction in (WALK_UP, WALK_DOWN):
        assert view.neighbor_key(direction) == old_neighbor_key(view, direction)
    left = sorted(members - removed)
    if where == "bottom" or not left:
        assert view.neighbor_key(WALK_DOWN) is None
    if where == "top" or not left:
        assert view.neighbor_key(WALK_UP) is None


class _Collector(QueryHandler):
    def __init__(self):
        self.queries = []

    def process_query(self, query):
        self.queries.append(query)
        return None


@settings(max_examples=30, deadline=None)
@given(
    queries,
    routings,
    st.lists(st.sampled_from(["tcp://a:1", "tcp://b:2"]), min_size=2, max_size=4),
)
def test_forwarded_query_is_the_hopped_copy(query, routing, route):
    """What ``forward_query`` delivers is ``hopped(payload)`` in every
    field; its ``src_route`` is the origin's list, and installing it as
    a multi-hop route leaves both its contents and the origin's as
    they were (the router keeps its own copy)."""
    query.src_route = route
    sent_route = list(route)
    sim, _, (a, b) = build_peers(2)
    a.router.add_route(b.peer_id, [b.transport_address])
    sender = ResolverService(a, group_param="g")
    ResolverService(b, group_param="g").register_handler(
        query.handler_name, collector := _Collector()
    )
    payload = query.payload.routed(*routing)
    sender.forward_query(b.peer_id, query, payload=payload)
    sim.run()
    (got,) = collector.queries
    assert _field_values(got) == _field_values(query.hopped(payload))
    assert got.hop_count == query.hop_count + 1
    assert got.payload is payload
    assert got.src_route is query.src_route
    b.router.add_route(got.src_peer, got.src_route)
    assert got.src_route == query.src_route == sent_route
    assert b.router.resolve(got.src_peer) == sent_route
    assert b.router._routes[b.interner.intern(got.src_peer)] is not route


#: (local?, lifetime or expiration, residual expiration) per cached
#: document; ``now`` and the clocks are multiples of 10 s, so entries
#: expiring exactly at ``now`` are common
cached = st.lists(
    st.tuples(st.booleans(), st.integers(1, 6), st.integers(1, 6)),
    min_size=1, max_size=8,
)


def _hit_path_service():
    """A rendezvous discovery service whose resolver records the
    payload ``send_response`` is handed instead of sending it."""
    sim, _, (endpoint,) = build_peers(1)
    resolver = ResolverService(endpoint, group_param="g")
    view = PeerView(
        RdvAdvertisement(
            rdv_peer_id=endpoint.peer_id, group_id=NET_PEER_GROUP_ID,
            route_hint=endpoint.transport_address,
        ),
        interner=endpoint.interner,
    )
    service = DiscoveryService(
        sim, PlatformConfig(), resolver, AdvertisementCache(),
        is_rendezvous=True, view=view,
    )
    sent = []
    resolver.send_response = lambda query, payload: sent.append(payload)
    return sim, service, sent


@settings(max_examples=80, deadline=None)
@given(cached, st.integers(0, 7), st.data())
@example([(False, 3, 3)], 3, None)  # a remote copy expiring at now
@example([(True, 2, 5)], 2, None)  # a local copy expiring at now
def test_hit_path_expirations_are_cache_get(entries, tick, data):
    """The response's expirations are what ``cache.get`` reads for each
    match: the entry's residual expiration while it is live, the
    default once ``now`` reaches ``expires_at`` or when the key is gone.
    The matches are handed to the hit path directly (``search`` never
    returns an expired entry), so the boundary itself is exercised."""
    sim, service, sent = _hit_path_service()
    cache = service.cache
    advs = []
    for i, (local, life, residual) in enumerate(entries):
        adv = FakeAdvertisement(f"doc-{i}")
        if local:
            cache.publish(adv, 0.0, lifetime=10.0 * life,
                          expiration=10.0 * residual + 1.0)
        else:
            cache.store_remote(adv, 0.0, expiration=10.0 * life)
        advs.append(adv)
    advs.append(FakeAdvertisement("never-cached"))
    matches = (
        advs if data is None
        else data.draw(st.lists(st.sampled_from(advs), min_size=1))
    )
    now = 10.0 * tick
    sim.run(until=now)
    assert sim.clock._now == now
    cache.search = lambda *args, **kwargs: list(matches)
    query = service.resolver.new_query(
        DISCOVERY_HANDLER_NAME,
        DiscoveryQueryPayload(FakeAdvertisement.ADV_TYPE, "Name", "doc-0"),
    )
    service._handle_query(query)
    (payload,) = sent
    assert payload.advertisements == matches
    want = []
    for adv in matches:
        entry = cache.get(adv, now)
        want.append(DEFAULT_EXPIRATION if entry is None else entry.expiration)
    assert payload.expirations == want


addresses = st.sampled_from(["tcp://a:1", "tcp://b:2", "tcp://c:3"])
slots = st.lists(
    st.one_of(
        st.none(), addresses, st.lists(addresses, min_size=2, max_size=3),
    ),
    max_size=12,
)


def old_single_hop_add_route(router, peer_id, address):
    """``add_route(peer_id, [address])`` before it became
    ``add_direct_route``: intern, then ``_get`` / ``_set``."""
    key = router.interner.intern(peer_id)
    if router._get(key) != address:
        router._set(key, address)


@settings(max_examples=150, deadline=None)
@given(slots, st.integers(0, 20), addresses)
@example([["tcp://a:1", "tcp://b:2"]], 0, "tcp://a:1")  # multi-hop slot
@example([], 15, "tcp://c:3")  # far past the end of the table
def test_add_direct_route_is_add_route_of_one_hop(table, n, address):
    """On any route table — ``None`` slots, single-hop strings,
    multi-hop lists, and a destination whose key is past the end of
    ``_routes`` — the single-hop install leaves the table exactly as
    ``add_route(p, [a])`` and the code it replaced do."""
    _, _, (endpoint,) = build_peers(1)
    router = endpoint.router
    peers = [PeerID.from_int(NET_PEER_GROUP_ID, k) for k in range(1, 22)]
    for peer in peers:
        router.interner.intern(peer)
    peer = peers[n]
    results = []
    for install in (
        lambda: router.add_direct_route(peer, address),
        lambda: router.add_route(peer, [address]),
        lambda: old_single_hop_add_route(router, peer, address),
    ):
        router._routes = [
            list(slot) if type(slot) is list else slot for slot in table
        ]
        install()
        results.append(router._routes)
    assert results[0] == results[1] == results[2]
    assert router.resolve(peer) == [address]
