"""Unit tests for the endpoint layer (addresses, service, ERP router)."""

import random

import pytest

from repro.endpoint import EndpointMessage, EndpointService
from repro.endpoint.address import tcp_address
from repro.endpoint.service import DEFAULT_TTL
from repro.ids import IDFactory
from repro.network.latency import ConstantLatency
from repro.network.site import place_nodes
from repro.network.transport import Network
from repro.sim import Simulator
from tests.routes import next_hop


class TestEndpointAddress:
    def test_tcp_address_helper(self):
        assert tcp_address("rennes-0", 9701) == "tcp://rennes-0:9701"
        with pytest.raises(ValueError):
            tcp_address("h", 0)


def build_peers(n=3, seed=1):
    """Create n endpoint services (each owns its router) on a fast
    test network."""
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.001), sw_overhead=0.0)
    nodes = place_nodes(n)
    factory = IDFactory(random.Random(seed))
    services = []
    for i in range(n):
        pid = factory.new_peer_id()
        svc = EndpointService(sim, net, pid, nodes[i], tcp_address(nodes[i].hostname, 9701))
        svc.attach()
        services.append(svc)
    return sim, net, services


def msg(src, dst, body="hello", service="svc", param="p"):
    return EndpointMessage(
        src_peer=src.peer_id,
        dst_peer=dst.peer_id,
        service_name=service,
        service_param=param,
        body=body,
    )


class TestEndpointService:
    def test_direct_send_dispatches_to_listener(self):
        sim, _, (a, b, _) = build_peers()
        got = []
        b.add_listener("svc", "p", got.append)
        a.send_direct(b.transport_address, msg(a, b))
        sim.run()
        assert len(got) == 1
        assert got[0].body == "hello"

    def test_unknown_service_is_dropped_silently(self):
        sim, _, (a, b, _) = build_peers()
        got = []
        b.add_listener("svc", "p", got.append)
        a.send_direct(b.transport_address, msg(a, b, service="ghost"))
        # listeners match (name, param) exactly: another param is unknown
        a.send_direct(b.transport_address, msg(a, b, param="anything"))
        sim.run()  # must not raise
        assert got == [] and b.messages_in == 2

    def test_duplicate_listener_rejected(self):
        _, _, (a, _, _) = build_peers()
        a.add_listener("svc", "p", lambda m: None)
        with pytest.raises(ValueError):
            a.add_listener("svc", "p", lambda m: None)

    def test_detach_stops_delivery(self):
        sim, net, (a, b, _) = build_peers()
        got = []
        b.add_listener("svc", "p", got.append)
        b.detach()
        a.send_direct(b.transport_address, msg(a, b))
        sim.run()
        assert got == []
        assert net.stats.messages_dropped == 1

    def test_message_counters(self):
        sim, _, (a, b, _) = build_peers()
        b.add_listener("svc", "p", lambda m: None)
        a.send_direct(b.transport_address, msg(a, b))
        sim.run()
        assert a.messages_out == 1
        assert b.messages_in == 1

    def test_size_includes_header(self):
        _, _, (a, b, _) = build_peers()
        m = msg(a, b, body="x" * 100)
        assert m.size_bytes() >= 100 + 200


class TestRouter:
    def test_send_to_peer_with_installed_route(self):
        sim, _, (a, b, _) = build_peers()
        got = []
        b.add_listener("svc", "p", got.append)
        a.router.add_direct_route(b.peer_id, b.transport_address)
        a.send_to_peer(msg(a, b))
        sim.run()
        assert len(got) == 1

    def test_no_route_drops_and_notifies(self):
        sim, _, (a, b, _) = build_peers()
        drops = []
        a.send_to_peer(msg(a, b), on_drop=drops.append)
        sim.run()
        assert len(drops) == 1
        assert a.router.no_route_drops == 1

    def test_default_route_relays_via_intermediate(self):
        # a -> c (relay) -> b : a only knows c; c knows b directly
        sim, _, (a, b, c) = build_peers()
        got = []
        b.add_listener("svc", "p", got.append)
        a.router.set_default_route(c.transport_address)
        c.router.add_direct_route(b.peer_id, b.transport_address)
        a.send_to_peer(msg(a, b))
        sim.run()
        assert len(got) == 1
        assert got[0].ttl == DEFAULT_TTL - 1
        assert c.messages_relayed == 1

    def test_send_takes_the_default_then_the_direct_route(self):
        """send_to_peer hands the message to the default route while the
        table has no route for the destination, and to the direct route
        once one is installed."""
        sim, _, (a, b, c) = build_peers()
        sent_to = []
        a.send_direct = lambda dst, message, on_drop=None: sent_to.append(dst)
        for install, hop in (
            (lambda: a.router.set_default_route(c.transport_address),
             c.transport_address),
            (lambda: a.router.add_direct_route(b.peer_id, b.transport_address),
             b.transport_address),
        ):
            install()
            a.send_to_peer(msg(a, b))
            assert sent_to == [hop]
            sent_to.clear()
        assert a.router.no_route_drops == 0

    def test_ttl_exhaustion_breaks_forwarding_loop(self):
        # a and b default-route to each other; an unroutable message
        # ping-pongs until TTL dies instead of looping forever
        sim, _, (a, b, c) = build_peers()
        a.router.set_default_route(b.transport_address)
        b.router.set_default_route(a.transport_address)
        a.send_to_peer(msg(a, c))
        sim.run()  # terminates

    def test_route_to_self_delivers_locally_without_network(self):
        sim, net, (a, _, _) = build_peers()
        got = []
        a.add_listener("svc", "p", got.append)
        before = net.stats.messages_sent
        a.send_to_peer(msg(a, a))
        sim.run()
        assert len(got) == 1
        assert net.stats.messages_sent == before

    def test_reverse_route_learning(self):
        sim, _, (a, b, _) = build_peers()
        b.add_listener("svc", "p", lambda m: None)
        a.router.add_direct_route(b.peer_id, b.transport_address)
        a.send_to_peer(msg(a, b))
        sim.run()
        assert next_hop(b.router, a.peer_id) == a.transport_address

    def test_remove_route(self):
        _, _, (a, b, _) = build_peers()
        a.router.add_direct_route(b.peer_id, b.transport_address)
        a.router.remove_route(b.peer_id)
        assert not a.router.has_route(b.peer_id)
