"""Property-based test: the ERP route table against a dict model.

``EndpointRouter._routes`` is a list indexed by the network's interned
peer keys: ``None`` — or a key past the end — means "no route", and a
write past the end extends the list; every route is one transport
address.  The model below is the table as it was when it was a
``{key: route}`` dict, with every writer's rule copied in: reverse
learning (in ``EndpointService._on_envelope``), the peerview's
``_learn`` and ``add_direct_route`` each install the address they are
handed, and none of them routes the local peer.

Random interleavings of every writer — the table methods, an endpoint
delivery and a peerview learn, on peers whose keys lie past the current
end, on the local peer and on peers the interner has never seen — must
leave the table's next hop, ``has_route``, ``route_table_size`` and the
first hop ``EndpointService.send_to_peer`` takes equal to the model's
after every operation.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.endpoint import EndpointMessage, EndpointService
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.network.latency import ConstantLatency
from repro.network.message import Envelope
from repro.network.site import place_nodes
from repro.network.transport import Network
from repro.rendezvous.peerview import PeerView
from repro.rendezvous.protocol import PeerViewProtocol
from repro.sim import Simulator
from tests.routes import next_hop

PEERS = 12
LOCAL = 0
ADDRESSES = ("tcp://a:1", "tcp://b:1", "tcp://c:1")
LOCAL_HOP = "<local>"


def pid(n):
    return PeerID.from_int(NET_PEER_GROUP_ID, 1000 + n)


class DictTable:
    """The route table as a dict keyed by peer, parent semantics."""

    def __init__(self):
        self.routes = {}
        self.default = None

    def add_direct_route(self, n, address):
        if self.routes.get(n) != address:
            self.routes[n] = address

    def remove_route(self, n):
        self.routes.pop(n, None)

    def deliver(self, n, origin):
        if origin and n != LOCAL and self.routes.get(n) != origin:
            self.routes[n] = origin

    def learn(self, n, hint):
        if n != LOCAL and hint and self.routes.get(n) != hint:
            self.routes[n] = hint

    def resolve(self, n):
        return self.routes.get(n, self.default)

    def first_hop(self, n):
        return LOCAL_HOP if n == LOCAL else self.resolve(n)


def build(pre_interned):
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.001), sw_overhead=0.0)
    # peers interned before the local one hold keys below its own;
    # the rest are interned on first use, past the table's current end
    for n in pre_interned:
        net.interner.intern(pid(n))
    svc = EndpointService(
        sim, net, pid(LOCAL), place_nodes(1)[0], "tcp://local:1"
    )
    router = svc.router
    local_adv = RdvAdvertisement(
        rdv_peer_id=pid(LOCAL), group_id=NET_PEER_GROUP_ID,
        route_hint="tcp://local:1",
    )
    # what PeerViewProtocol._learn reads off its instance
    protocol = SimpleNamespace(
        view=PeerView(local_adv, interner=net.interner), endpoint=svc
    )
    sent = []
    svc.send_direct = lambda dst, message, on_drop=None: sent.append(dst)
    svc.add_listener("svc", "p", lambda message: sent.append(LOCAL_HOP))
    return net, svc, router, protocol, sent


def message(src, dst, origin="", service="svc"):
    return EndpointMessage(
        src_peer=src, dst_peer=dst, service_name=service, service_param="p",
        body="x", origin_address=origin,
    )


peers = st.integers(0, PEERS - 1)
addresses = st.sampled_from(ADDRESSES)
operations = st.one_of(
    st.tuples(st.just("add_direct_route"), peers, addresses),
    st.tuples(st.just("remove_route"), peers, st.none()),
    st.tuples(st.just("deliver"), peers, st.sampled_from(ADDRESSES + ("",))),
    st.tuples(st.just("learn"), peers, st.sampled_from(ADDRESSES + ("",))),
    st.tuples(st.just("default"), st.none(), st.sampled_from(ADDRESSES + (None,))),
)


def apply(op, n, arg, net, svc, router, protocol, model):
    if op == "default":
        router.set_default_route(arg)
        model.default = arg
    elif op == "deliver":
        svc._on_envelope(
            Envelope("tcp://x:1", svc.transport_address,
                     message(pid(n), pid(LOCAL), arg, service="unheard"))
        )
        model.deliver(n, arg)
    elif op == "learn":
        adv = RdvAdvertisement(
            rdv_peer_id=pid(n), group_id=NET_PEER_GROUP_ID, route_hint=arg
        )
        PeerViewProtocol._learn(protocol, adv, 1.0)
        model.learn(n, arg)
    else:
        getattr(router, op)(*((pid(n),) if arg is None else (pid(n), arg)))
        getattr(model, op)(*((n,) if arg is None else (n, arg)))


def check(net, svc, router, model, sent):
    assert router.route_table_size() == len(model.routes)
    for n in range(PEERS):
        peer = pid(n)
        assert next_hop(router, peer) == model.resolve(n)
        assert router.has_route(peer) == (n in model.routes)
        if net.interner.lookup(peer) is None:
            continue  # send_to_peer interns; keep unseen peers unseen
        svc.send_to_peer(message(pid(LOCAL), peer))
        assert (sent.pop() if sent else None) == model.first_hop(n)
        assert not sent
    assert len(router._routes) <= len(net.interner)
    assert all(route is None or type(route) is str for route in router._routes)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, PEERS - 1), unique=True, max_size=4),
    st.lists(operations, max_size=40),
)
def test_list_table_matches_the_dict_model(pre_interned, ops):
    net, svc, router, protocol, sent = build(pre_interned)
    model = DictTable()
    check(net, svc, router, model, sent)
    for op, n, arg in ops:
        apply(op, n, arg, net, svc, router, protocol, model)
        check(net, svc, router, model, sent)


def test_a_write_extends_the_table_to_its_key_only():
    net, svc, router, protocol, _ = build([])
    for n in range(1, 8):
        net.interner.intern(pid(n))
    router.add_direct_route(pid(3), ADDRESSES[0])
    key = net.interner.lookup(pid(3))
    assert len(router._routes) == key + 1 < len(net.interner)
    assert router._routes[:key] == [None] * key
    assert not router.has_route(pid(7)) and next_hop(router, pid(7)) is None
    router.remove_route(pid(7))  # past the end: nothing to clear
    assert len(router._routes) == key + 1
    router.remove_route(pid(3))
    assert router._routes[key] is None and router.route_table_size() == 0
