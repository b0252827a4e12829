"""Unit tests for the steady-state free lists.

Covers the kernel handle pool (acquire/release/``schedule_recycled``
and the ``SimOptions(pool_debug=True)`` integrity checks), the network envelope
pool, and the message-shell pool contract (only ``recyclable`` shells
are pooled, only on the pooled — never-duplicated — delivery path, and
``forwarded()`` copies are never recyclable).
"""

from dataclasses import replace

import pytest

from repro.endpoint.service import EndpointMessage
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID
from repro.network.latency import ConstantLatency
from repro.network.site import place_nodes
from repro.network.transport import Network
from repro.sim import SimOptions, Simulator
from repro.sim.kernel import SchedulingError


def make_net(**options):
    sim = Simulator(seed=5, options=replace(SimOptions.from_env(), **options))
    net = Network(sim, latency=ConstantLatency(0.01), sw_overhead=0.0)
    nodes = place_nodes(2)
    return sim, net, nodes


def make_message(recyclable=False):
    return EndpointMessage(
        src_peer=PeerID.from_int(NET_PEER_GROUP_ID, 1),
        dst_peer=None,
        service_name="svc",
        service_param="param",
        body="body",
        origin_address="a",
        recyclable=recyclable,
    )


class TestHandlePool:
    def test_fired_handle_cycles_through_pool(self):
        sim = Simulator(seed=1)
        fired = []
        handle = sim.schedule(0.1, fired.append, 1, label="x")
        sim.run()
        sim.release_handle(handle)
        recycled = sim.schedule_recycled(0.1, lambda a, b, h: None, 1, 2, "y")
        assert recycled is handle
        assert recycled.pending and recycled.label == "y"
        assert sim._handle_pool == []

    def test_release_of_pending_handle_rejected(self):
        sim = Simulator(seed=1)
        handle = sim.schedule(1.0, lambda: None, label="pending")
        with pytest.raises(SchedulingError):
            sim.release_handle(handle)

    def test_schedule_recycled_negative_delay_rejected(self):
        sim = Simulator(seed=1)
        with pytest.raises(SchedulingError):
            sim.schedule_recycled(-0.5, lambda a, b, h: None, 1, 2, "x")

    def test_schedule_recycled_passes_handle_to_callback(self):
        sim = Simulator(seed=1)
        seen = []
        handle = sim.schedule_recycled(
            0.25, lambda a, b, h: seen.append((a, b, h)), "a", "b", "lbl"
        )
        sim.run()
        assert seen == [("a", "b", handle)]
        assert handle.label == "lbl"


class TestPoolDebug:
    def test_double_release_detected(self):
        sim = Simulator(
            seed=1, options=replace(SimOptions.from_env(), pool_debug=True)
        )
        handle = sim.schedule(0.1, lambda: None, label="x")
        sim.run()
        sim.release_handle(handle)
        with pytest.raises(SchedulingError, match="double release"):
            sim.release_handle(handle)

    def test_rearm_of_pool_resident_handle_detected(self):
        sim = Simulator(
            seed=1, options=replace(SimOptions.from_env(), pool_debug=True)
        )
        handle = sim.schedule(0.1, lambda: None, label="x")
        sim.run()
        sim.release_handle(handle)
        with pytest.raises(SchedulingError, match="resident in the free"):
            sim.reschedule(handle, 1.0, lambda: None, ())


class TestEnvelopePool:
    def test_envelope_object_is_recycled(self):
        sim, net, nodes = make_net()
        received = []
        net.attach("a", nodes[0], received.append)
        net.attach("b", nodes[1], received.append)
        net.send("a", "b", "one")
        sim.run()
        first = received[0]
        net.send("a", "b", "two", size_bytes=100)
        sim.run()
        assert received[1] is first  # same shell, rewritten in place
        assert received[1].payload == "two"
        assert received[1].size_bytes == 100

    def test_pooling_off_allocates_fresh_envelopes(self):
        sim, net, nodes = make_net(pooling=False)
        received = []
        net.attach("a", nodes[0], received.append)
        net.attach("b", nodes[1], received.append)
        net.send("a", "b", "one")
        sim.run()
        net.send("a", "b", "two")
        sim.run()
        assert received[0] is not received[1]

    def test_recycled_send_still_validates_size(self):
        sim, net, nodes = make_net()
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: None)
        net.send("a", "b", "warm")
        sim.run()
        assert net._envelope_pool
        with pytest.raises(ValueError):
            net.send("a", "b", "bad", size_bytes=0)


class TestMessageShellPool:
    def test_recyclable_shell_returns_to_pool(self):
        sim, net, nodes = make_net()
        received = []
        net.attach("a", nodes[0], received.append)
        net.attach("b", nodes[1], received.append)
        message = make_message(recyclable=True)
        net.send("a", "b", message, size_bytes=300)
        sim.run()
        assert received[0].payload is message
        assert message in net.message_pool
        assert message.recyclable is False  # flag cleared on release

    def test_plain_shell_is_not_pooled(self):
        sim, net, nodes = make_net()
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: None)
        net.send("a", "b", make_message(recyclable=False), size_bytes=300)
        sim.run()
        assert net.message_pool == []

    def test_unpooled_delivery_never_recycles_shells(self):
        # with pooling off the delivery path carries no handle, so even
        # a recyclable-marked shell must stay out of the pool (that
        # path also serves fault-injected duplicate deliveries, which
        # share one shell)
        sim, net, nodes = make_net(pooling=False)
        net.attach("a", nodes[0], lambda e: None)
        net.attach("b", nodes[1], lambda e: None)
        message = make_message(recyclable=True)
        net.send("a", "b", message, size_bytes=300)
        sim.run()
        assert net.message_pool == []
        assert message.recyclable is True

    def test_forwarded_copy_is_never_recyclable(self):
        message = make_message(recyclable=True)
        copy = message.forwarded()
        assert copy.recyclable is False
        assert copy.ttl == message.ttl - 1
        assert copy.hops_taken == message.hops_taken + 1

    def test_peerview_steady_state_circulates_shells(self):
        # a running overlay should reach a working set of pooled
        # shells instead of allocating one per send
        from repro.config import PlatformConfig
        from repro.deploy import OverlayDescription, build_overlay
        from repro.sim import MINUTES

        sim = Simulator(seed=2)
        net = Network(sim)
        overlay = build_overlay(
            sim, net, PlatformConfig(),
            OverlayDescription(rendezvous_count=8),
        )
        overlay.start()
        sim.run(until=3 * MINUTES)
        assert net.message_pool
        assert all(not m.recyclable for m in net.message_pool)
