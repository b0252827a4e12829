"""Unit tests for the network transport."""

import pytest

from repro.network.latency import ConstantLatency
from repro.network.message import Envelope
from repro.network.site import place_nodes
from repro.network.transport import DeliveryError, Network
from repro.sim import Simulator


def make_net(sw_overhead=0.0, latency=0.001):
    sim = Simulator(seed=42)
    net = Network(sim, latency=ConstantLatency(latency), sw_overhead=sw_overhead)
    nodes = place_nodes(4)
    return sim, net, nodes


class TestAttachment:
    def test_attach_and_send(self):
        sim, net, nodes = make_net()
        received = []
        net.attach("a", nodes[0], received.append)
        net.attach("b", nodes[1], received.append)
        net.send("a", "b", {"hello": 1})
        sim.run()
        assert len(received) == 1
        assert received[0].payload == {"hello": 1}

    def test_double_attach_rejected(self):
        _, net, nodes = make_net()
        net.attach("a", nodes[0], lambda e: None)
        with pytest.raises(DeliveryError):
            net.attach("a", nodes[1], lambda e: None)

    def test_detach_is_idempotent(self):
        _, net, nodes = make_net()
        net.attach("a", nodes[0], lambda e: None)
        net.detach("a")
        net.detach("a")
        assert not net.is_attached("a")

    def test_node_of(self):
        sim, net, nodes = make_net()
        net.attach("a", nodes[2], lambda e: None)
        net.attach("b", nodes[2], lambda e: None)
        net.send("a", "b", "x")
        sim.run()
        # both addresses sit on nodes[2]: one intra-site message
        site = nodes[2].site.name
        assert dict(net.stats.site_pair_messages) == {(site, site): 1}

    def test_node_of_unknown_raises(self):
        _, net, nodes = make_net()
        net.attach("a", nodes[0], lambda e: None)
        net.detach("a")
        with pytest.raises(DeliveryError):
            net.send("a", "a", "x")


class TestDelivery:
    def test_delivery_delay_includes_latency_and_serialization(self):
        sim, net, nodes = make_net(latency=0.002)
        times = []
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: times.append(sim.now))
        net.send("a", "b", "x", size_bytes=125_000)  # 1 Mb => 1 ms at 1 Gb/s
        sim.run()
        assert times[0] == pytest.approx(0.002 + 0.001)

    def test_send_from_unknown_source_rejected(self):
        _, net, _ = make_net()
        with pytest.raises(DeliveryError):
            net.send("ghost", "b", "x")

    def test_send_to_unknown_destination_drops(self):
        sim, net, nodes = make_net()
        drops = []
        net.attach("a", nodes[0], lambda e: None)
        net.send("a", "ghost", "x", on_drop=drops.append)
        sim.run()
        assert len(drops) == 1
        assert net.stats.messages_dropped == 1

    def test_destination_dying_in_flight_drops(self):
        sim, net, nodes = make_net()
        received, drops = [], []
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], received.append)
        net.send("a", "b", "x", on_drop=drops.append)
        net.detach("b")  # dies before delivery
        sim.run()
        assert received == []
        assert len(drops) == 1

    def test_messages_preserve_fifo_for_same_size(self):
        sim, net, nodes = make_net()
        seen = []
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: seen.append(e.payload))
        for i in range(5):
            net.send("a", "b", i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_invalid_constructor_args(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Network(sim, sw_overhead=-1)


class TestStats:
    def test_counters(self):
        sim, net, nodes = make_net()
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: None)
        net.send("a", "b", "x", size_bytes=100)
        net.send("a", "ghost", "y", size_bytes=50)
        sim.run()
        assert net.stats.messages_sent == 2
        assert net.stats.messages_delivered == 1
        assert net.stats.messages_dropped == 1
        assert net.stats.bytes_sent == 150

    def test_site_pair_accounting(self):
        sim, net, nodes = make_net()
        # nodes 0..3 round-robin over 9 sites: all on different sites
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: None)
        net.send("a", "b", "x")
        sim.run()
        assert net.stats.inter_site_messages == 1
        assert net.stats.intra_site_messages == 0

    def test_bandwidth_bps(self):
        sim, net, nodes = make_net()
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: None)
        net.send("a", "b", "x", size_bytes=1000)
        sim.run()
        assert net.stats.bandwidth_bps(8.0) == pytest.approx(1000.0)

    def test_bandwidth_requires_positive_elapsed(self):
        _, net, _ = make_net()
        with pytest.raises(ValueError):
            net.stats.bandwidth_bps(0.0)


class TestEgressQueueing:
    def test_burst_from_one_node_serializes(self):
        sim, net, nodes = make_net(latency=0.0)
        times = []
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: times.append(sim.now))
        # three 1 Mb messages: 1 ms serialization each at 1 Gb/s
        for _ in range(3):
            net.send("a", "b", "x", size_bytes=125_000)
        sim.run()
        assert times == pytest.approx([0.001, 0.002, 0.003])

    def test_different_nodes_do_not_queue_on_each_other(self):
        sim, net, nodes = make_net(latency=0.0)
        times = []
        net.attach("a", nodes[0], lambda e: None)
        net.attach("c", nodes[2], lambda e: None)
        net.attach("b", nodes[1], lambda e: times.append(sim.now))
        net.send("a", "b", "x", size_bytes=125_000)
        net.send("c", "b", "y", size_bytes=125_000)
        sim.run()
        assert times == pytest.approx([0.001, 0.001])

    def test_queue_drains_over_time(self):
        sim, net, nodes = make_net(latency=0.0)
        times = []
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: times.append(sim.now))
        net.send("a", "b", "x", size_bytes=125_000)
        sim.run()  # NIC idle again
        net.send("a", "b", "y", size_bytes=125_000)
        sim.run()
        # second message sees no queueing: 1 ms after its own send time
        assert times[1] - times[0] >= 0.001


class TestEnvelope:
    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            Envelope(src="a", dst="b", payload=None, size_bytes=0)
