"""Properties of the per-hop copies on the discovery query path.

A discovery query is compiled once (:class:`DiscoveryQueryPayload`
derives its glob/range flags, index tuple and wire size at
construction) and copied once per hop (``payload.routed`` for the
routing state, ``ResolverQuery.hopped(payload)`` for the hop counter).
Both copies bypass the constructors' derivations, so they are checked
here against the constructors themselves — and against the two-copy
``_with_routing`` + ``hopped()`` pair they replaced.
"""

import pickle
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertisement.cache import has_glob
from repro.discovery.rangequery import is_range_query, range_spec
from repro.discovery.service import DiscoveryQueryPayload
from repro.discovery.walker import WALK_DOWN, WALK_NONE, WALK_UP
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.resolver.messages import ResolverQuery

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
    assert payload.is_wildcard == has_glob(value)
    assert payload.is_range == is_range_query(value)
    assert payload.is_complex == (has_glob(value) or is_range_query(value))
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
