"""Property-based tests: advertisement XML codec round-trips."""

from hypothesis import given
from hypothesis import strategies as st

from repro.advertisement import (
    FakeAdvertisement,
    PeerAdvertisement,
    parse_advertisement,
)
from repro.ids import NET_PEER_GROUP_ID, PeerID

# XML 1.0 cannot carry most control characters; JXTA documents are
# printable text, so the strategy sticks to that domain
xml_text = st.text(
    alphabet=st.characters(
        min_codepoint=0x20, max_codepoint=0xD7FF, blacklist_characters="\x7f"
    ),
    min_size=0,
    max_size=80,
)
nonempty_xml_text = xml_text.filter(lambda s: s.strip() != "")

peer_ids = st.integers(min_value=0, max_value=2**128 - 1).map(
    lambda n: PeerID.from_int(NET_PEER_GROUP_ID, n)
)


@given(nonempty_xml_text, xml_text)
def test_fake_advertisement_roundtrip(name, payload):
    adv = FakeAdvertisement(name, payload)
    assert parse_advertisement(adv.to_xml()) == adv


@given(peer_ids, nonempty_xml_text, xml_text)
def test_peer_advertisement_roundtrip(pid, name, desc):
    adv = PeerAdvertisement(pid, NET_PEER_GROUP_ID, name, desc)
    parsed = parse_advertisement(adv.to_xml())
    assert parsed == adv
    assert parsed.peer_id == pid


@given(nonempty_xml_text, xml_text)
def test_size_bytes_matches_serialization(name, payload):
    adv = FakeAdvertisement(name, payload)
    assert adv.size_bytes() == len(adv.to_xml().encode("utf-8"))


@given(nonempty_xml_text)
def test_index_tuples_stable_across_roundtrip(name):
    adv = FakeAdvertisement(name)
    parsed = parse_advertisement(adv.to_xml())
    assert parsed.index_tuples() == adv.index_tuples()
