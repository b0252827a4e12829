"""Edge-case tests for the resolver and relay lifecycles."""

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.network import Network
from repro.resolver import QueryHandler, ResolverService
from repro.sim import MINUTES, SECONDS, Simulator
from tests.unit.test_endpoint import build_peers


class TestResolverEdgeCases:
    def test_unregister_then_query_is_silent(self):
        sim, _, (a, b, _) = build_peers()
        ra = ResolverService(a, group_param="g")
        rb = ResolverService(b, group_param="g")

        class H(QueryHandler):
            def process_query(self, query):
                return "resp"

        rb.register_handler("other", H())
        a.router.add_direct_route(b.peer_id, b.transport_address)
        ra.send_query(b.peer_id, ra.new_query("h", "x"))
        sim.run()  # no crash, no response

    def test_unexpected_resolver_body_raises(self):
        sim, _, (a, b, _) = build_peers()
        ResolverService(a, group_param="g")
        rb = ResolverService(b, group_param="g")
        from repro.endpoint.service import EndpointMessage
        from repro.resolver.service import RESOLVER_SERVICE_NAME

        a.send_direct(
            b.transport_address,
            EndpointMessage(
                src_peer=a.peer_id,
                dst_peer=b.peer_id,
                service_name=RESOLVER_SERVICE_NAME,
                service_param="g",
                body={"not": "a resolver message"},
            ),
        )
        with pytest.raises(TypeError):
            sim.run()

    def test_response_to_stale_query_id_is_ignored(self):
        sim, _, (a, b, _) = build_peers()
        ra = ResolverService(a, group_param="g")
        rb = ResolverService(b, group_param="g")
        seen = []

        class Collector(QueryHandler):
            def process_response(self, response):
                seen.append(response)

        ra.register_handler("h", Collector())

        class Echo(QueryHandler):
            def process_query(self, query):
                return "resp"

        rb.register_handler("h", Echo())
        a.router.add_direct_route(b.peer_id, b.transport_address)
        q = ra.new_query("h", "x")
        ra.send_query(b.peer_id, q)
        sim.run()
        assert len(seen) == 1  # handlers see responses; dedup is theirs


class TestRelayReRegistration:
    def test_relay_lease_renewed_by_periodic_register(self):
        sim = Simulator(seed=5)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(rendezvous_count=2),
        )
        edge = overlay.group.create_edge(
            overlay.rendezvous[0].node,
            seeds=[overlay.rendezvous[0].address],
            transport="http",
        )
        # short relay lease to exercise re-registration
        overlay.start()
        sim.run(until=2 * MINUTES)
        relay = overlay.rendezvous[0].relay_server
        assert relay.client_count() == 1
        # run far past the default 300 s relay lease: periodic
        # re-registration must keep the client registered
        sim.run(until=20 * MINUTES)
        assert relay.client_count() == 1
        assert edge.relay_client.polls_sent > 100
