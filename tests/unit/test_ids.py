"""Unit tests for JXTA IDs."""

import random

import pytest

from repro.ids import (
    IDFactory,
    JxtaID,
    NET_PEER_GROUP_ID,
    PeerGroupID,
    PeerID,
    PipeID,
    WORLD_PEER_GROUP_ID,
)


class TestPeerGroupID:
    def test_from_uuid_roundtrip(self):
        gid = PeerGroupID.from_uuid(b"0123456789abcdef")
        assert gid.uuid == b"0123456789abcdef"

    def test_wrong_uuid_length_rejected(self):
        with pytest.raises(ValueError):
            PeerGroupID.from_uuid(b"short")

    def test_well_known_groups_differ(self):
        assert WORLD_PEER_GROUP_ID != NET_PEER_GROUP_ID


class TestPeerID:
    def test_from_parts(self):
        pid = PeerID.from_parts(NET_PEER_GROUP_ID, b"A" * 16)
        assert pid.value[:16] == NET_PEER_GROUP_ID.uuid
        assert pid.unique_value == b"A" * 16

    def test_from_int(self):
        pid = PeerID.from_int(NET_PEER_GROUP_ID, 6)
        assert int.from_bytes(pid.unique_value, "big") == 6

    def test_from_int_out_of_range(self):
        with pytest.raises(ValueError):
            PeerID.from_int(NET_PEER_GROUP_ID, 2**128)
        with pytest.raises(ValueError):
            PeerID.from_int(NET_PEER_GROUP_ID, -1)

    def test_type_byte_enforced(self):
        gid_bytes = NET_PEER_GROUP_ID.uuid
        with pytest.raises(ValueError):
            PeerID(gid_bytes + b"A" * 16 + b"\x05")  # pipe byte on PeerID

    def test_total_order_matches_int_order(self):
        ids = [PeerID.from_int(NET_PEER_GROUP_ID, n) for n in (180, 6, 88, 20)]
        ordered = sorted(ids)
        assert [int.from_bytes(p.unique_value, "big") for p in ordered] == [
            6, 20, 88, 180,
        ]

    def test_eq_and_hash(self):
        a = PeerID.from_int(NET_PEER_GROUP_ID, 42)
        b = PeerID.from_int(NET_PEER_GROUP_ID, 42)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_not_equal_across_types_with_same_prefix(self):
        pid = PeerID.from_parts(NET_PEER_GROUP_ID, b"A" * 16)
        pipe = PipeID.from_parts(NET_PEER_GROUP_ID, b"A" * 16)
        assert pid != pipe


class TestUrn:
    def test_urn_roundtrip(self):
        pid = PeerID.from_int(NET_PEER_GROUP_ID, 12345)
        assert PeerID.from_urn(pid.urn()) == pid

    def test_urn_prefix(self):
        pid = PeerID.from_int(NET_PEER_GROUP_ID, 1)
        assert pid.urn().startswith("urn:jxta:uuid-")

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            PeerID.from_urn("urn:ietf:params:oauth")

    def test_bad_hex_rejected(self):
        with pytest.raises(ValueError):
            PeerID.from_urn("urn:jxta:uuid-ZZZZ")

    def test_str_is_urn(self):
        pid = PeerID.from_int(NET_PEER_GROUP_ID, 1)
        assert str(pid) == pid.urn()


class TestValidation:
    def test_non_bytes_rejected(self):
        with pytest.raises(TypeError):
            JxtaID("not-bytes")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            JxtaID(b"")

    def test_from_parts_wrong_unique_length(self):
        with pytest.raises(ValueError):
            PeerID.from_parts(NET_PEER_GROUP_ID, b"short")


class TestIDFactory:
    def test_determinism(self):
        a = IDFactory(random.Random(1)).new_peer_id()
        b = IDFactory(random.Random(1)).new_peer_id()
        assert a == b

    def test_uniqueness_within_factory(self):
        f = IDFactory(random.Random(1))
        ids = {f.new_peer_id() for _ in range(1000)}
        assert len(ids) == 1000

    def test_default_group_is_net_group(self):
        f = IDFactory(random.Random(1))
        assert f.new_peer_id().value[:16] == NET_PEER_GROUP_ID.uuid

    def test_explicit_group(self):
        f = IDFactory(random.Random(1))
        gid = PeerGroupID.from_uuid(b"G" * 16)
        pid = f.new_peer_id(gid)
        assert pid.value[:16] == gid.uuid

    def test_all_id_kinds_mintable(self):
        f = IDFactory(random.Random(2))
        assert f.new_peer_id() is not None
        assert f.new_pipe_id() is not None
