"""Unit tests for the PeerView data structure."""

import dataclasses
import random

import pytest

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.rendezvous.peerview import PeerView


def pid(n):
    return PeerID.from_int(NET_PEER_GROUP_ID, n)


def adv(n, name=""):
    return RdvAdvertisement(
        rdv_peer_id=pid(n),
        group_id=NET_PEER_GROUP_ID,
        name=name or f"rdv-{n}",
        route_hint=f"tcp://host-{n}:9701",
    )


def neighbor(view, direction):
    """``view.neighbor_key(direction)`` as a PeerID (None at an end)."""
    key = view.neighbor_key(direction)
    return None if key is None else view.interner.id_of(key)


@pytest.fixture
def view():
    # local peer has ID 50, so upper/lower neighbors exist around it
    return PeerView(adv(50))


class TestUpsert:
    def test_add_returns_added(self, view):
        assert view.upsert(adv(10), now=0.0) == "added"
        assert view.size == 1

    def test_refresh_returns_refreshed(self, view):
        view.upsert(adv(10), now=0.0)
        assert view.upsert(adv(10), now=5.0) == "refreshed"
        assert view.size == 1
        assert view.get(pid(10)).last_refreshed == 5.0

    def test_self_is_ignored(self, view):
        assert view.upsert(adv(50), now=0.0) == "self"
        assert view.size == 0

    def test_refresh_updates_advertisement(self, view):
        view.upsert(adv(10), now=0.0)
        newer = adv(10, name="renamed")
        view.upsert(newer, now=1.0)
        assert view.get(pid(10)).adv.name == "renamed"

    def test_a_read_copy_cannot_be_written(self, view):
        # the stamp lives in the view's array; writing the copy would
        # refresh nothing, so it fails instead
        view.upsert(adv(10), now=0.0)
        entry = view.get(pid(10))
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.last_refreshed = 9.0
        assert view.get(pid(10)).last_refreshed == 0.0


class TestSizeSemantics:
    def test_size_excludes_self_member_count_includes(self, view):
        # paper footnote 2: l excludes the local rendezvous;
        # the ReplicaPeer rank list includes it (Table 1)
        view.upsert(adv(10), now=0.0)
        view.upsert(adv(90), now=0.0)
        assert view.size == 2
        assert view.member_count() == 3

    def test_contains_self(self, view):
        assert pid(50) in view

    def test_ordered_ids_sorted_with_self(self, view):
        for n in (88, 6, 180, 20, 36):
            view.upsert(adv(n), now=0.0)
        order = [int.from_bytes(p.unique_value, "big") for p in view.ordered_ids()]
        assert order == [6, 20, 36, 50, 88, 180]


class TestExpiry:
    def test_expire_removes_stale_entries(self, view):
        view.upsert(adv(10), now=0.0)
        view.upsert(adv(20), now=100.0)
        dead = view.expire(now=1201.0, pve_expiration=1200.0)
        assert dead == [pid(10)]
        assert view.size == 1

    def test_refresh_prevents_expiry(self, view):
        view.upsert(adv(10), now=0.0)
        view.upsert(adv(10), now=600.0)
        assert view.expire(now=1201.0, pve_expiration=1200.0) == []

    def test_entry_exactly_at_expiration_survives(self, view):
        # Algorithm 1 line 3 removes entries with age strictly greater
        view.upsert(adv(10), now=0.0)
        assert view.expire(now=1200.0, pve_expiration=1200.0) == []

    def test_age_is_compared_not_a_cutoff(self, view):
        # the age 50.1 - 0.1 rounds to exactly 50.0 (alive) while the
        # cutoff 50.1 - 50.0 lies above 0.1 (dead): the two forms part
        # on float boundaries, and the age form is the pinned one
        view.upsert(adv(10), now=0.1)
        assert view.expire(now=50.1, pve_expiration=50.0) == []
        assert view.expire(now=50.2, pve_expiration=50.0) == [pid(10)]

    def test_expire_leak_canary_leaks_every_third_key(self):
        for armed in (False, True):
            view = PeerView(adv(50), expire_leak=armed)
            for n in range(1, 9):
                view.upsert(adv(n), now=0.0)
            leaked = sum(1 for key in view.known_keys() if key % 3 == 1)
            assert leaked
            assert len(view.expire(now=101.0, pve_expiration=100.0)) == 8
            assert view.size == 0
            # armed, the ordered-list slot of every key with key % 3 == 1
            # goes back; unarmed, every slot goes
            assert view.member_count() == 1 + (leaked if armed else 0)


class TestRemove:
    def test_remove_present(self, view):
        view.upsert(adv(10), now=0.0)
        assert view.remove(pid(10), now=1.0)
        assert view.size == 0
        assert view.removes == 1

    def test_remove_absent_returns_false(self, view):
        assert not view.remove(pid(10), now=1.0)


class TestNeighbors:
    def test_upper_and_lower(self, view):
        for n in (10, 40, 60, 90):
            view.upsert(adv(n), now=0.0)
        assert neighbor(view, -1) == pid(40)
        assert neighbor(view, +1) == pid(60)

    def test_at_bottom_of_list(self):
        v = PeerView(adv(1))
        v.upsert(adv(10), now=0.0)
        assert neighbor(v, -1) is None
        assert neighbor(v, +1) == pid(10)

    def test_at_top_of_list(self):
        v = PeerView(adv(100))
        v.upsert(adv(10), now=0.0)
        assert neighbor(v, +1) is None
        assert neighbor(v, -1) == pid(10)

    def test_alone(self, view):
        assert neighbor(view, +1) is None
        assert neighbor(view, -1) is None

    def test_neighbor_of_directional(self, view):
        for n in (10, 40, 60):
            view.upsert(adv(n), now=0.0)
        assert view.neighbor_of(pid(40), +1) == pid(50)
        assert view.neighbor_of(pid(40), -1) == pid(10)
        assert view.neighbor_of(pid(10), -1) is None
        assert view.neighbor_of(pid(60), +1) is None

    def test_neighbor_of_unknown_peer(self, view):
        assert view.neighbor_of(pid(99), +1) is None

    def test_neighbor_of_bad_direction(self, view):
        with pytest.raises(ValueError):
            view.neighbor_of(pid(50), 0)


class TestRanks:
    def test_table1_ranks(self):
        # Table 1 of the paper: peers 006..180 at ranks 0..5
        v = PeerView(adv(6))
        for n in (20, 36, 50, 88, 180):
            v.upsert(adv(n), now=0.0)
        assert v.id_at(0) == pid(6)
        assert v.id_at(3) == pid(50)
        assert v.id_at(5) == pid(180)
        assert v.rank_of(pid(88)) == 4

    def test_rank_of_absent(self, view):
        assert view.rank_of(pid(7)) is None


class TestReferral:
    def test_excludes_self_and_prober(self, view):
        view.upsert(adv(10), now=0.0)
        view.upsert(adv(20), now=0.0)
        rng = random.Random(0)
        for _ in range(50):
            (referral,) = view.random_referrals(rng, 1, exclude=(pid(10),))
            assert referral.rdv_peer_id == pid(20)

    def test_no_candidates_returns_none(self, view):
        view.upsert(adv(10), now=0.0)
        assert view.random_referrals(random.Random(0), 1, exclude=(pid(10),)) == []

    def test_uniformity(self, view):
        for n in (10, 20, 30):
            view.upsert(adv(n), now=0.0)
        rng = random.Random(0)
        counts = {}
        for _ in range(3000):
            (referral,) = view.random_referrals(rng, 1)
            referral = referral.rdv_peer_id
            counts[referral] = counts.get(referral, 0) + 1
        assert all(800 < c < 1200 for c in counts.values())


class TestListeners:
    def test_add_and_remove_events(self, view):
        events = []
        view.add_listener(events.append)
        view.upsert(adv(10), now=1.0)
        view.upsert(adv(10), now=2.0)  # refresh: no event
        view.remove(pid(10), now=3.0, reason="expired")
        assert [(e.kind, e.time) for e in events] == [("add", 1.0), ("remove", 3.0)]
        assert events[1].reason == "expired"


class TestProperty2:
    def test_complete_view(self, view):
        for n in (10, 20):
            view.upsert(adv(n), now=0.0)
        # Property (2)'s target l = g, with g = r - 1 excluding self
        assert view.size == 2
        assert view.member_count() == 3
