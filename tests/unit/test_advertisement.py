"""Unit tests for advertisement types and the XML codec."""

import random

import pytest

from repro.advertisement import (
    Advertisement,
    FakeAdvertisement,
    PeerAdvertisement,
    PipeAdvertisement,
    RdvAdvertisement,
    UnknownAdvertisementType,
    parse_advertisement,
)
from repro.advertisement.pipeadv import PIPE_TYPE_PROPAGATE
from repro.advertisement.xmlcodec import _REGISTRY
from repro.ids import IDFactory, NET_PEER_GROUP_ID
from repro.ids.jxtaid import PeerID, PipeID


@pytest.fixture
def factory():
    return IDFactory(random.Random(7))


class TestPeerAdvertisement:
    def test_roundtrip(self, factory):
        adv = PeerAdvertisement(
            factory.new_peer_id(), NET_PEER_GROUP_ID, "Test", desc="hello"
        )
        parsed = parse_advertisement(adv.to_xml())
        assert parsed == adv
        assert isinstance(parsed, PeerAdvertisement)

    def test_index_tuples_include_name(self, factory):
        adv = PeerAdvertisement(factory.new_peer_id(), NET_PEER_GROUP_ID, "Test")
        tuples = adv.index_tuples()
        assert ("jxta:PA", "Name", "Test") in tuples
        assert any(attr == "PID" for _, attr, _ in tuples)

    def test_paper_example_tuple(self, factory):
        # §3.3: type Peer + attribute Name + value Test
        adv = PeerAdvertisement(factory.new_peer_id(), NET_PEER_GROUP_ID, "Test")
        assert ("jxta:PA", "Name", "Test") in adv.index_tuples()

    def test_unique_key_is_per_peer(self, factory):
        pid = factory.new_peer_id()
        a = PeerAdvertisement(pid, NET_PEER_GROUP_ID, "name-1")
        b = PeerAdvertisement(pid, NET_PEER_GROUP_ID, "name-2")
        assert a.unique_key() == b.unique_key()

    def test_size_bytes_positive_and_realistic(self, factory):
        adv = PeerAdvertisement(factory.new_peer_id(), NET_PEER_GROUP_ID, "Test")
        assert 100 < adv.size_bytes() < 4096


class TestRdvAdvertisement:
    def test_roundtrip(self, factory):
        adv = RdvAdvertisement(
            factory.new_peer_id(),
            NET_PEER_GROUP_ID,
            name="rdv-1",
            route_hint="tcp://rennes-0:9701",
        )
        parsed = parse_advertisement(adv.to_xml())
        assert parsed == adv
        assert parsed.route_hint == "tcp://rennes-0:9701"

    def test_unique_key_per_peer_and_group(self, factory):
        pid = factory.new_peer_id()
        a = RdvAdvertisement(pid, NET_PEER_GROUP_ID, name="x")
        b = RdvAdvertisement(pid, NET_PEER_GROUP_ID, name="y")
        assert a.unique_key() == b.unique_key()


class TestPipeAdvertisement:
    def test_roundtrip(self, factory):
        adv = PipeAdvertisement(
            factory.new_pipe_id(), "juxmem-data", PIPE_TYPE_PROPAGATE
        )
        parsed = parse_advertisement(adv.to_xml())
        assert parsed == adv

    def test_unknown_pipe_type_rejected(self, factory):
        with pytest.raises(ValueError):
            PipeAdvertisement(factory.new_pipe_id(), "x", "JxtaBogus")


class TestFakeAdvertisement:
    def test_roundtrip(self):
        adv = FakeAdvertisement("fake-17", payload="x" * 100)
        assert parse_advertisement(adv.to_xml()) == adv

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            FakeAdvertisement("")

    def test_payload_inflates_size(self):
        small = FakeAdvertisement("n")
        big = FakeAdvertisement("n", payload="y" * 1000)
        assert big.size_bytes() > small.size_bytes() + 900


class TestCodec:
    def test_malformed_xml_rejected(self):
        with pytest.raises(ValueError):
            parse_advertisement("<unclosed>")

    def test_missing_type_attribute_rejected(self):
        with pytest.raises(ValueError):
            parse_advertisement("<doc><Name>x</Name></doc>")

    def test_unknown_type_rejected(self):
        with pytest.raises(UnknownAdvertisementType):
            parse_advertisement('<doc type="jxta:Nope"><a>b</a></doc>')

    def test_xml_declaration_present(self, factory):
        adv = PeerAdvertisement(factory.new_peer_id(), NET_PEER_GROUP_ID, "T")
        assert adv.to_xml().startswith('<?xml version="1.0"?>')

    def test_eq_and_hash_consistent(self, factory):
        pid = factory.new_peer_id()
        a = PeerAdvertisement(pid, NET_PEER_GROUP_ID, "T")
        b = PeerAdvertisement(pid, NET_PEER_GROUP_ID, "T")
        assert a == b and hash(a) == hash(b)


_PID = PeerID.from_int(NET_PEER_GROUP_ID, 6)
_PIPE = PipeID.from_int(NET_PEER_GROUP_ID, 20)
_PID_URN = (
    "urn:jxta:uuid-6A7874612D4E657447726F75702D3031"
    "0000000000000000000000000000000603"
)
_PIPE_URN = (
    "urn:jxta:uuid-6A7874612D4E657447726F75702D3031"
    "0000000000000000000000000000001405"
)
_GROUP_URN = "urn:jxta:uuid-6A7874612D4E657447726F75702D303102"

#: every registered advertisement class, with the string its own
#: ``unique_key()`` override returned before the key became a memo
#: behind the ``_unique_key()`` hook (generated at the parent commit)
PINNED_KEYS = [
    (FakeAdvertisement("adv-1", payload="xx"),
     "repro:FakeAdvertisement|adv-1"),
    (PeerAdvertisement(_PID, NET_PEER_GROUP_ID, "Test", desc="d"),
     f"jxta:PA|{_PID_URN}"),
    (RdvAdvertisement(_PID, NET_PEER_GROUP_ID, name="rdv-0", route_hint="tcp://a:1"),
     f"jxta:RdvAdvertisement|{_PID_URN}|{_GROUP_URN}"),
    (PipeAdvertisement(_PIPE, "chat"),
     f"jxta:PipeAdvertisement|{_PIPE_URN}"),
]


class TestUniqueKeyMemo:
    def test_every_registered_type_is_pinned(self):
        assert {type(adv) for adv, _ in PINNED_KEYS} == set(
            _REGISTRY.values()
        )

    @pytest.mark.parametrize(
        "adv, key", PINNED_KEYS, ids=[type(a).__name__ for a, _ in PINNED_KEYS]
    )
    def test_key_is_the_parent_commits_string_and_one_object(self, adv, key):
        assert adv.unique_key() == key
        assert adv.unique_key() is adv.unique_key()

    def test_field_write_drops_the_key(self, factory):
        adv = PeerAdvertisement(factory.new_peer_id(), NET_PEER_GROUP_ID, "T")
        old = adv.unique_key()
        adv.name = "renamed"  # not part of the key: dropped all the same
        assert adv.unique_key() == old and adv.unique_key() is not old
        adv.peer_id = factory.new_peer_id()
        assert adv.unique_key() == f"jxta:PA|{adv.peer_id.urn()}" != old

    def test_default_hook_is_type_plus_every_field(self):
        class Plain(Advertisement):
            ADV_TYPE = "test:Plain"

            def _fields(self):
                return (("A", "1"), ("B", "2"))

        adv = Plain()
        assert adv.unique_key() == "test:Plain|A=1|B=2"
        assert adv.unique_key() is adv.unique_key()

    def test_subclass_overriding_unique_key_itself_still_works(self):
        class Legacy(Advertisement):
            ADV_TYPE = "test:Legacy"
            serial = 0

            def unique_key(self):
                return f"{self.ADV_TYPE}|{self.serial}"

        adv = Legacy()
        assert adv.unique_key() == "test:Legacy|0"
        adv.serial = 1
        assert adv.unique_key() == "test:Legacy|1"
        assert "_key_cache" not in adv.__dict__
