"""Property-based tests: range specs, walk helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.discovery.rangequery import (
    is_range_query,
    parse_range_spec,
    range_spec,
    tuple_in_range,
)
from repro.discovery.walker import WALK_DOWN, WALK_UP, walk_next_target
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.rendezvous.peerview import PeerView

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestRangeSpecProperties:
    @given(finite, finite)
    def test_roundtrip_for_valid_ranges(self, a, b):
        lo, hi = sorted((a, b))
        parsed = parse_range_spec(range_spec(lo, hi))
        assert parsed is not None
        assert parsed[0] == lo and parsed[1] == hi

    @given(finite, finite, finite)
    def test_membership_consistent_with_bounds(self, a, b, x):
        lo, hi = sorted((a, b))
        t = ("T", "A", repr(x))
        assert tuple_in_range(t, "T", "A", lo, hi) == (lo <= x <= hi)

    @given(st.text(max_size=30).filter(lambda s: ".." not in s))
    def test_plain_values_are_never_ranges(self, value):
        assert not is_range_query(value)


def _adv(n):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        route_hint=f"tcp://h{n}:1",
    )


class TestWalkProperties:
    @given(
        st.sets(st.integers(0, 500), min_size=1, max_size=40),
        st.integers(501, 600),
    )
    def test_walk_visits_every_member_exactly_once(self, members, local):
        """With identical views, the two walk legs together cover every
        other member exactly once — the O(r) bound of §3.3."""
        everyone = sorted(members | {local})
        views = {}
        for me in everyone:
            view = PeerView(_adv(me))
            for other in everyone:
                if other != me:
                    view.upsert(_adv(other), 0.0)
            views[me] = view

        visited = []
        for direction in (WALK_UP, WALK_DOWN):
            current = local
            while True:
                nxt = walk_next_target(views[current], direction)
                if nxt is None:
                    break
                n = int.from_bytes(nxt.unique_value, "big")
                visited.append(n)
                current = n
        assert sorted(visited) == sorted(members - {local})
