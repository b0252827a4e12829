"""Fuzz: the peerview protocol never crashes on adversarial messages.

A rendezvous must survive arbitrary (well-formed) peerview traffic from
arbitrary senders: probes/updates/responses/referrals about peers it
has never heard of, referrals about itself, messages during and after
shutdown.  The protocol is best-effort; the invariant is "no exception,
view stays sorted and self-consistent".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.config import PlatformConfig
from repro.endpoint.service import EndpointMessage, EndpointService
from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID
from repro.network.latency import ConstantLatency
from repro.network.site import place_nodes
from repro.network.transport import Network
from repro.rendezvous.messages import (
    PeerViewProbe,
    PeerViewReferral,
    PeerViewResponse,
    PeerViewUpdate,
)
from repro.rendezvous.protocol import PEERVIEW_SERVICE_NAME, PeerViewProtocol
from repro.sim import Simulator

LOCAL_ID = 500


def _adv(n):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        route_hint=f"tcp://fuzz-{n}:9701",
    )


messages = st.lists(
    st.one_of(
        st.tuples(st.just("probe"), st.integers(0, 40), st.booleans()),
        st.tuples(st.just("update"), st.integers(0, 40)),
        st.tuples(st.just("response"), st.integers(0, 40)),
        st.tuples(
            st.just("referral"),
            st.lists(st.integers(0, 40), min_size=0, max_size=4),
        ),
        # hearsay about the local peer itself
        st.tuples(st.just("referral_self"),),
    ),
    min_size=0,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(messages)
def test_peerview_protocol_survives_arbitrary_traffic(sequence):
    sim = Simulator(seed=1)
    network = Network(sim, latency=ConstantLatency(0.001))
    node = place_nodes(1)[0]
    local_adv = _adv(LOCAL_ID)
    endpoint = EndpointService(
        sim, network, local_adv.rdv_peer_id, node, "tcp://fuzz-local:9701"
    )
    endpoint.attach()
    protocol = PeerViewProtocol(
        endpoint, PlatformConfig(), local_adv, "fuzz-group"
    )
    protocol.start()

    def deliver(body, sender_n):
        message = EndpointMessage(
            src_peer=PeerID.from_int(NET_PEER_GROUP_ID, sender_n),
            dst_peer=local_adv.rdv_peer_id,
            service_name=PEERVIEW_SERVICE_NAME,
            service_param="fuzz-group",
            body=body,
            origin_address=f"tcp://fuzz-{sender_n}:9701",
        )
        from repro.network.message import Envelope

        endpoint._on_envelope(
            Envelope(
                src=message.origin_address,
                dst=endpoint.transport_address,
                payload=message,
                size_bytes=message.size_bytes(),
            )
        )

    for item in sequence:
        kind = item[0]
        if kind == "probe":
            deliver(PeerViewProbe(_adv(item[1]), want_referral=item[2]), item[1])
        elif kind == "update":
            deliver(PeerViewUpdate(_adv(item[1])), item[1])
        elif kind == "response":
            deliver(PeerViewResponse(_adv(item[1])), item[1])
        elif kind == "referral":
            deliver(PeerViewReferral([_adv(n) for n in item[1]]), 7)
        else:
            deliver(PeerViewReferral([local_adv]), 7)
        sim.run(until=sim.now + 1.0)

        # invariants: sorted, self present, size consistent
        ordered = protocol.view.ordered_ids()
        assert list(ordered) == sorted(ordered)
        assert protocol.view.local_peer_id in protocol.view
        assert protocol.view.member_count() == protocol.view.size + 1

    protocol.stop()
    sim.run(until=sim.now + 60.0)  # drains without errors
