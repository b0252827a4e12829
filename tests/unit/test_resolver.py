"""Unit tests for the resolver service."""

import pytest

from repro.resolver import (
    QueryHandler,
    ResolverQuery,
    ResolverService,
)
from tests.unit.test_endpoint import build_peers


class EchoHandler(QueryHandler):
    """Responds to every query with 'echo:<payload>'."""

    def __init__(self):
        self.queries = []
        self.responses = []
        self.srdi = []

    def process_query(self, query):
        self.queries.append(query)
        return f"echo:{query.payload}"

    def process_response(self, response):
        self.responses.append(response)

    def process_srdi(self, message):
        self.srdi.append(message)


class SilentHandler(QueryHandler):
    """Never responds."""

    def __init__(self):
        self.queries = []

    def process_query(self, query):
        self.queries.append(query)
        return None


def build_resolvers(n=3):
    sim, net, services = build_peers(n)
    resolvers = []
    for svc in services:
        resolvers.append(ResolverService(svc, group_param="netgroup"))
    # full mesh routes for directed tests
    for a in services:
        for b in services:
            if a is not b:
                a.router.add_direct_route(b.peer_id, b.transport_address)
    return sim, services, resolvers


class TestQueryResponse:
    def test_directed_query_gets_response(self):
        sim, services, (ra, rb, _) = build_resolvers()
        ha, hb = EchoHandler(), EchoHandler()
        ra.register_handler("disco", ha)
        rb.register_handler("disco", hb)
        q = ra.new_query("disco", "ping")
        ra.send_query(services[1].peer_id, q)
        sim.run()
        assert [r.payload for r in ha.responses] == ["echo:ping"]
        assert hb.queries[0].src_peer == services[0].peer_id

    def test_query_ids_are_unique_and_increasing(self):
        _, _, (ra, _, _) = build_resolvers()
        q1 = ra.new_query("h", "a")
        q2 = ra.new_query("h", "b")
        assert q2.query_id > q1.query_id

    def test_silent_handler_sends_no_response(self):
        sim, services, (ra, rb, _) = build_resolvers()
        ha = EchoHandler()
        ra.register_handler("disco", ha)
        rb.register_handler("disco", SilentHandler())
        ra.send_query(services[1].peer_id, ra.new_query("disco", "ping"))
        sim.run()
        assert ha.responses == []

    def test_unknown_handler_query_dropped(self):
        sim, services, (ra, rb, _) = build_resolvers()
        ra.register_handler("disco", EchoHandler())
        ra.send_query(services[1].peer_id, ra.new_query("disco", "ping"))
        sim.run()  # rb has no handler; must not raise

    def test_response_correlates_by_query_id(self):
        sim, services, (ra, rb, _) = build_resolvers()
        ha = EchoHandler()
        ra.register_handler("disco", ha)
        rb.register_handler("disco", EchoHandler())
        q = ra.new_query("disco", "x")
        ra.send_query(services[1].peer_id, q)
        sim.run()
        assert ha.responses[0].query_id == q.query_id

    def test_duplicate_handler_rejected(self):
        _, _, (ra, _, _) = build_resolvers()
        ra.register_handler("h", EchoHandler())
        with pytest.raises(ValueError):
            ra.register_handler("h", EchoHandler())

    def test_forward_query_increments_hop_count(self):
        sim, services, (ra, rb, rc) = build_resolvers()
        hc = SilentHandler()
        rb.register_handler("disco", _Forwarder(rb, services[2].peer_id))
        rc.register_handler("disco", hc)
        ra.register_handler("disco", EchoHandler())
        ra.send_query(services[1].peer_id, ra.new_query("disco", "walk"))
        sim.run()
        assert hc.queries[0].hop_count == 1
        # origin metadata preserved through the forward
        assert hc.queries[0].src_peer == services[0].peer_id


class _Forwarder(QueryHandler):
    """Forwards every query to a fixed next peer (walk building block)."""

    def __init__(self, resolver, next_peer):
        self.resolver = resolver
        self.next_peer = next_peer

    def process_query(self, query):
        self.resolver.forward_query(self.next_peer, query)
        return None


class TestResponseRouting:
    def test_response_uses_embedded_src_route(self):
        # responder has no prior route to the querier; the src_route
        # embedded in the query must be enough
        sim, services, (ra, rb, _) = build_resolvers()
        # remove rb's direct route to a to prove src_route installs it
        rb.endpoint.router.remove_route(services[0].peer_id)
        ha = EchoHandler()
        ra.register_handler("disco", ha)
        rb.register_handler("disco", EchoHandler())
        ra.send_query(services[1].peer_id, ra.new_query("disco", "ping"))
        sim.run()
        assert len(ha.responses) == 1


class TestSrdi:
    def test_srdi_push_dispatches(self):
        sim, services, (ra, rb, _) = build_resolvers()
        hb = EchoHandler()
        rb.register_handler("disco", hb)
        ra.send_srdi(services[1].peer_id, "disco", {"idx": 1})
        sim.run()
        assert len(hb.srdi) == 1
        assert hb.srdi[0].src_peer == services[0].peer_id

    def test_srdi_to_unknown_handler_dropped(self):
        sim, services, (ra, _, _) = build_resolvers()
        ra.send_srdi(services[1].peer_id, "ghost", {})
        sim.run()  # must not raise


class TestPropagation:
    def test_destinationless_query_requires_propagator(self):
        _, _, (ra, _, _) = build_resolvers()
        with pytest.raises(RuntimeError):
            ra.send_query(None, ra.new_query("disco", "flood"))

    def test_destinationless_query_uses_propagator(self):
        _, _, (ra, _, _) = build_resolvers()
        seen = []
        ra.propagator = seen.append
        q = ra.new_query("disco", "flood")
        ra.send_query(None, q)
        assert seen == [q]


class TestCounters:
    def test_sent_counters(self):
        sim, services, (ra, rb, _) = build_resolvers()
        ra.register_handler("disco", EchoHandler())
        rb.register_handler("disco", EchoHandler())
        ra.send_query(services[1].peer_id, ra.new_query("disco", "x"))
        ra.send_srdi(services[1].peer_id, "disco", {})
        sim.run()
        assert ra.queries_sent == 1
        assert ra.srdi_sent == 1
        assert rb.responses_sent == 1
