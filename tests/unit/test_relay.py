"""Unit tests for the HTTP relay transport."""

import pytest

from repro.advertisement import FakeAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.endpoint.relay import RelayClient, RelayServer
from repro.network import Network
from repro.sim import MINUTES, SECONDS, Simulator


def build_with_http_edge(seed=14, r=4):
    """Overlay with two TCP edges (publisher + searcher) and one HTTP
    edge."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=r, edge_count=2,
                           edge_attachment=[0, 2]),
    )
    http_edge = overlay.group.create_edge(
        overlay.rendezvous[1].node,
        seeds=[overlay.rendezvous[1].address],
        transport="http",
    )
    overlay.start()
    sim.run(until=10 * MINUTES)
    assert overlay.group.property_2_satisfied()
    return sim, overlay, http_edge


class TestRelayAttachment:
    def test_http_edge_advertises_relay_address(self):
        sim, overlay, edge = build_with_http_edge()
        assert edge.lease_client.connected
        relay_rdv = overlay.rendezvous[1]
        assert edge.endpoint.advertised_address == relay_rdv.address
        assert edge.relay_client.attached

    def test_relay_registers_client(self):
        sim, overlay, edge = build_with_http_edge()
        assert overlay.rendezvous[1].relay_server.client_count() == 1

    def test_tcp_edge_advertises_own_address(self):
        sim, overlay, _ = build_with_http_edge()
        tcp_edge = overlay.edges[0]
        assert tcp_edge.endpoint.advertised_address == tcp_edge.endpoint.transport_address

    def test_invalid_transport_rejected(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(), OverlayDescription(rendezvous_count=1)
        )
        with pytest.raises(ValueError):
            overlay.group.create_edge(
                overlay.rendezvous[0].node,
                seeds=[overlay.rendezvous[0].address],
                transport="carrier-pigeon",
            )


class TestRelayedDiscovery:
    def test_http_edge_can_publish_and_be_found(self):
        sim, overlay, http_edge = build_with_http_edge()
        http_edge.discovery.publish(FakeAdvertisement("behind-nat"))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        overlay.edges[0].discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "behind-nat",
            callback=lambda advs, lat: results.append((advs, lat)),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert len(results) == 1
        assert results[0][0][0].name == "behind-nat"

    def test_http_edge_can_search(self):
        sim, overlay, http_edge = build_with_http_edge()
        overlay.edges[0].discovery.publish(FakeAdvertisement("outside"))
        sim.run(until=sim.now + 2 * MINUTES)
        results = []
        http_edge.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "outside",
            callback=lambda advs, lat: results.append((advs, lat)),
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert len(results) == 1

    def test_relayed_inbound_pays_polling_latency(self):
        # query responses to the HTTP searcher wait for the next poll:
        # mean latency must exceed the TCP edge's by a noticeable part
        # of the poll interval
        sim, overlay, http_edge = build_with_http_edge()
        overlay.edges[0].discovery.publish(FakeAdvertisement("latency"))
        sim.run(until=sim.now + 2 * MINUTES)

        latencies = {"http": [], "tcp": []}
        for kind, searcher in (("http", http_edge), ("tcp", overlay.edges[1])):
            for _ in range(10):
                searcher.cache.flush()
                searcher.discovery.get_remote_advertisements(
                    "repro:FakeAdvertisement", "Name", "latency",
                    callback=lambda advs, lat, k=kind: latencies[k].append(lat),
                )
                sim.run(until=sim.now + 30 * SECONDS)
        mean_http = sum(latencies["http"]) / len(latencies["http"])
        mean_tcp = sum(latencies["tcp"]) / len(latencies["tcp"])
        assert mean_http > mean_tcp + 0.2  # ≥ a fair share of the 2 s poll

    def test_queue_drains_through_polls(self):
        sim, overlay, http_edge = build_with_http_edge()
        relay = overlay.rendezvous[1].relay_server
        assert relay.queued >= 0
        before = http_edge.relay_client.messages_received
        overlay.edges[0].discovery.publish(FakeAdvertisement("drain"))
        sim.run(until=sim.now + 2 * MINUTES)
        http_edge.discovery.get_remote_advertisements(
            "repro:FakeAdvertisement", "Name", "drain",
            callback=lambda advs, lat: None,
        )
        sim.run(until=sim.now + 1 * MINUTES)
        assert http_edge.relay_client.messages_received > before
        assert relay.queue_length(http_edge.peer_id) == 0


class TestRelayServer:
    def test_queue_overflow_drops(self):
        sim = Simulator(seed=3)
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
        overlay.start()
        sim.run(until=5 * MINUTES)
        relay = overlay.rendezvous[0].relay_server
        relay.queue_limit = 3
        # stop polling so the queue fills
        edge.relay_client._poll_task.stop()
        from repro.endpoint.service import EndpointMessage

        rdv = overlay.rendezvous[1]
        for i in range(6):
            rdv.router.add_route(edge.peer_id, [overlay.rendezvous[0].address])
            rdv.endpoint.send_to_peer(
                EndpointMessage(
                    src_peer=rdv.peer_id,
                    dst_peer=edge.peer_id,
                    service_name="svc",
                    service_param="p",
                    body=f"m{i}",
                )
            )
        sim.run(until=sim.now + 10 * SECONDS)
        assert relay.queue_length(edge.peer_id) == 3
        assert relay.dropped_overflow == 3

    def test_detach_restores_direct_addressing(self):
        sim, overlay, edge = build_with_http_edge()
        edge.relay_client.detach()
        assert edge.endpoint.advertised_address == edge.endpoint.transport_address

    def test_bad_constructor_args(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(), OverlayDescription(rendezvous_count=1)
        )
        rdv = overlay.rendezvous[0]
        with pytest.raises(ValueError):
            RelayServer(rdv.endpoint, "g", queue_limit=0)
        with pytest.raises(ValueError):
            RelayClient(rdv.endpoint, "g", poll_interval=0.0)


class TestRelayInterceptor:
    """The relay server's interceptor sits on the endpoint only while
    the server has a client, so a rendezvous without HTTP edges routes
    every message without a call into it."""

    def test_rendezvous_without_clients_has_no_interceptor(self):
        sim, overlay, http_edge = build_with_http_edge()
        relay_rdv = overlay.rendezvous[1]
        for rdv in overlay.rendezvous:
            if rdv is relay_rdv:
                continue
            assert rdv.relay_server.client_count() == 0
            assert rdv.endpoint.relay_interceptor is None
        assert relay_rdv.endpoint.relay_interceptor == (
            relay_rdv.relay_server._intercept
        )

    def test_first_registration_installs_it(self):
        sim = Simulator(seed=3)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(rendezvous_count=2),
        )
        relay_rdv = overlay.rendezvous[0]
        assert relay_rdv.endpoint.relay_interceptor is None
        overlay.group.create_edge(
            relay_rdv.node, seeds=[relay_rdv.address], transport="http",
        )
        overlay.start()
        sim.run(until=5 * MINUTES)
        assert relay_rdv.relay_server.client_count() == 1
        assert relay_rdv.endpoint.relay_interceptor == (
            relay_rdv.relay_server._intercept
        )

    def test_purging_the_last_client_clears_it(self):
        sim, overlay, http_edge = build_with_http_edge()
        relay_rdv = overlay.rendezvous[1]
        client = http_edge.relay_client
        lease = client.lease
        client.detach()  # stops re-registering; the record expires
        sim.run(until=sim.now + lease + 1.0)
        assert relay_rdv.endpoint.relay_interceptor is not None
        assert relay_rdv.relay_server.client_count() == 0  # purges
        assert relay_rdv.endpoint.relay_interceptor is None
        # a new registration installs it again
        client.attach(relay_rdv.address)
        sim.run(until=sim.now + 1.0)
        assert relay_rdv.endpoint.relay_interceptor == (
            relay_rdv.relay_server._intercept
        )

    def test_snapshot_round_trip_keeps_it(self):
        """An HTTP edge's peer holds a closure (not snapshottable), so a
        TCP edge registers with the relay by hand, as
        ``RelayClient._register`` would."""
        from repro.endpoint.relay import RELAY_SERVICE_NAME, RelayRegister
        from repro.endpoint.service import EndpointMessage
        from repro.snapshot import restore_network, snapshot_network

        sim = Simulator(seed=3)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(rendezvous_count=3, edge_count=1,
                               edge_attachment=[0]),
        )
        overlay.start()
        sim.run(until=5 * MINUTES)
        relay_rdv, edge = overlay.rendezvous[1], overlay.edges[0]
        edge.endpoint.send_direct(
            relay_rdv.address,
            EndpointMessage(
                src_peer=edge.peer_id, dst_peer=None,
                service_name=RELAY_SERVICE_NAME,
                service_param=relay_rdv.relay_server.group_param,
                body=RelayRegister(
                    edge.peer_id, edge.endpoint.transport_address, 300.0
                ),
            ),
        )
        sim.run(until=sim.now + 1.0)
        assert relay_rdv.relay_server.client_count() == 1
        _, restored = restore_network(
            snapshot_network(network, extra=overlay)
        )
        for before, after in zip(overlay.rendezvous, restored.rendezvous):
            if before is relay_rdv:
                assert after.endpoint.relay_interceptor == (
                    after.relay_server._intercept
                )
            else:
                assert before.endpoint.relay_interceptor is None
                assert after.endpoint.relay_interceptor is None
