"""Property-based tests hardening the fault/invariant layer.

The invariant checker is the oracle every fault scenario leans on, so
it gets its own adversary: hypothesis drives random peerview states,
random corruptions and random fault windows, asserting the checker
flags exactly the broken states and the window predicate matches its
interval semantics.
"""

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.config import PlatformConfig
from repro.discovery.replica import ReplicaFunction
from repro.faults import InvariantChecker, Scenario, ScenarioEngine
from repro.faults.engine import _ActiveWindow
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.network import Network
from repro.rendezvous.lease import EdgeLease
from repro.rendezvous.peerview import PeerView
from repro.sim import Simulator

LOCAL = 500


def adv(n):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        route_hint=f"tcp://h{n}:1",
    )


def fake_rendezvous(members):
    """A minimal stand-in exposing everything the checker touches."""
    view = PeerView(adv(LOCAL))
    for n in members:
        view.upsert(adv(n), 0.0)
    return SimpleNamespace(
        name="fake-rdv",
        running=True,
        view=view,
        config=PlatformConfig(),
        discovery=SimpleNamespace(replica_fn=ReplicaFunction()),
        lease_server=SimpleNamespace(_leases={}),
        peerview_protocol=SimpleNamespace(name="peerview:fake"),
    )


def checker_for(peer):
    sim = Simulator(seed=0)
    engine = ScenarioEngine(sim, Network(sim), {}, Scenario(name="none"))
    return InvariantChecker(sim, [peer], engine)


members_sets = st.sets(
    st.integers(0, 999).filter(lambda n: n != LOCAL), min_size=0, max_size=50
)


@given(members_sets)
def test_clean_view_never_flagged(members):
    peer = fake_rendezvous(members)
    assert checker_for(peer).check_peer(peer) == []


@given(members_sets.filter(lambda s: len(s) >= 2), st.integers(0, 10_000))
def test_any_adjacent_swap_is_flagged(members, pick):
    peer = fake_rendezvous(members)
    ids = peer.view._order
    peer.view.invalidate_ordered_view()
    i = pick % (len(ids) - 1)
    ids[i], ids[i + 1] = ids[i + 1], ids[i]
    found = checker_for(peer).check_peer(peer)
    assert any(v.invariant == "peerview.total-order" for v in found)


@given(members_sets.filter(bool), st.integers(0, 10_000))
def test_any_duplicate_entry_is_flagged(members, pick):
    peer = fake_rendezvous(members)
    ids = peer.view._order
    peer.view.invalidate_ordered_view()
    ids.insert(pick % len(ids), ids[pick % len(ids)])
    found = checker_for(peer).check_peer(peer)
    invariants = {v.invariant for v in found}
    assert invariants & {"peerview.total-order", "peerview.consistency"}


@given(members_sets.filter(bool))
def test_ghost_entry_is_flagged(members):
    # an entry-table/order-book mismatch (entry dropped, id retained)
    peer = fake_rendezvous(members)
    victim = next(iter(peer.view._entries))
    del peer.view._entries[victim]
    found = checker_for(peer).check_peer(peer)
    assert any(v.invariant == "peerview.consistency" for v in found)


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(0.0, 5000.0))
def test_lease_lifetime_boundary(now, slack):
    peer = fake_rendezvous({1, 2})
    grant = peer.config.lease_duration
    peer.lease_server._leases = {
        "edge": EdgeLease(
            edge_peer=PeerID.from_int(NET_PEER_GROUP_ID, 7),
            edge_address="tcp://e:1",
            expires_at=now + grant + slack,
        )
    }
    found = checker_for(peer).check_peer(peer, now=now)
    lease_violations = [v for v in found if v.invariant == "lease.lifetime"]
    if slack > 1e-6:
        assert lease_violations
    elif slack == 0.0:
        assert not lease_violations


@given(
    st.floats(0.0, 100.0),
    st.floats(0.1, 100.0),
    st.floats(-50.0, 250.0),
    st.booleans(),
)
def test_window_active_matches_interval_semantics(start, length, probe, sited):
    window = _ActiveWindow(
        start, start + length, rate=0.5,
        sites=("rennes",) if sited else (),
    )
    inside = start <= probe < start + length
    assert window.active(probe, "rennes", "sophia") == inside
    assert window.active(probe, "lyon", "rennes") == inside
    # neither endpoint in the site filter -> never active when sited
    assert window.active(probe, "lyon", "nancy") == (inside and not sited)
