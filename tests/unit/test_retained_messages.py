"""A receiver may keep what it was handed.

Every :meth:`Network.send` builds a fresh :class:`Envelope` and every
peerview send a fresh :class:`EndpointMessage` shell, so a handler that
keeps either one past its callback reads the fields it was delivered
with, whatever is sent afterwards.
"""

import pytest

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.endpoint.service import EndpointMessage
from repro.network.latency import ConstantLatency
from repro.network.site import place_nodes
from repro.network.transport import Network
from repro.rendezvous.protocol import PEERVIEW_SERVICE_NAME
from repro.sim import MINUTES, Simulator

SHELL_FIELDS = (
    "src_peer", "dst_peer", "service_name", "service_param", "body",
    "origin_address", "ttl",
)


def _pair():
    sim = Simulator(seed=5)
    net = Network(sim, latency=ConstantLatency(0.01), sw_overhead=0.0)
    nodes = place_nodes(2)
    return sim, net, nodes


def test_kept_envelopes_keep_their_fields():
    sim, net, nodes = _pair()
    kept = []
    net.attach("a", nodes[0], kept.append)
    net.attach("b", nodes[1], kept.append)
    net.send("a", "b", "first", size_bytes=100)
    sim.run()
    net.send("a", "b", "second", size_bytes=200)
    sim.run()
    assert [e.payload for e in kept] == ["first", "second"]
    assert [e.size_bytes for e in kept] == [100, 200]
    assert kept[0] is not kept[1]


def test_send_validates_size():
    sim, net, nodes = _pair()
    net.attach("a", nodes[0], lambda e: None)
    net.attach("b", nodes[1], lambda e: None)
    with pytest.raises(ValueError):
        net.send("a", "b", "bad", size_bytes=0)


def test_kept_peerview_shells_keep_their_fields():
    sim = Simulator(seed=2)
    net = Network(sim)
    overlay = build_overlay(
        sim, net, PlatformConfig(), OverlayDescription(rendezvous_count=8)
    )
    overlay.start()
    # a receiver that keeps every peerview shell it is handed, with the
    # fields it read at delivery
    address = overlay.rendezvous[0].endpoint.transport_address
    node, handler = net._endpoints[address]
    kept = []

    def keeping(envelope):
        message = envelope.payload
        if (
            isinstance(message, EndpointMessage)
            and message.service_name == PEERVIEW_SERVICE_NAME
        ):
            fields = tuple(getattr(message, f) for f in SHELL_FIELDS)
            kept.append((message, fields))
        handler(envelope)

    net._endpoints[address] = (node, keeping)
    sim.run(until=3 * MINUTES)
    assert len(kept) > 20
    for message, fields in kept:
        assert tuple(getattr(message, f) for f in SHELL_FIELDS) == fields
