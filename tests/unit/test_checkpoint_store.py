"""Unit tests for the content-addressed checkpoint store."""

import pickle

import pytest

import repro.snapshot.store as store_mod
from repro.network import Network
from repro.sim import Simulator
from repro.snapshot import (
    SNAPSHOT_VERSION,
    CheckpointStore,
    SnapshotError,
    checkpoint_key,
    restore_network,
    snapshot_network,
)


SPEC = {"experiment": "unit", "r": 8, "seed": 1, "warmup": 120.0}


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "ckpts")


class TestKey:
    def test_key_is_stable_and_order_insensitive(self):
        reordered = dict(reversed(list(SPEC.items())))
        assert checkpoint_key(SPEC) == checkpoint_key(reordered)
        assert len(checkpoint_key(SPEC)) == 64

    def test_any_spec_change_changes_the_key(self):
        assert checkpoint_key(SPEC) != checkpoint_key({**SPEC, "seed": 2})
        assert checkpoint_key(SPEC) != checkpoint_key({**SPEC, "warmup": 121.0})

    def test_snapshot_version_folds_into_key(self, monkeypatch):
        before = checkpoint_key(SPEC)
        monkeypatch.setattr(store_mod, "SNAPSHOT_VERSION", 999)
        assert checkpoint_key(SPEC) != before


class TestSnapshotVersionBump:
    """A blob written under the previous ``SNAPSHOT_VERSION`` (the
    intern table had two slots then, three now) must be rebuilt, never
    unpickled into the new class layout."""

    def test_blob_stored_under_the_previous_version_is_rebuilt(
        self, store, monkeypatch
    ):
        current = store_mod.SNAPSHOT_VERSION
        assert current >= 2
        monkeypatch.setattr(store_mod, "SNAPSHOT_VERSION", current - 1)
        stale = store.put(SPEC, b"stale")
        monkeypatch.setattr(store_mod, "SNAPSHOT_VERSION", current)
        blob, hit = store.load_or_build(SPEC, lambda: b"rebuilt")
        assert (blob, hit) == (b"rebuilt", False)
        assert store.path_for(checkpoint_key(SPEC)) != stale

    def test_previous_version_frame_is_refused_not_misread(self):
        blob = bytearray(snapshot_network(Network(Simulator(seed=1))))
        restore_network(bytes(blob))  # sanity: the current frame loads
        at = blob.index(SNAPSHOT_VERSION.to_bytes(4, "big"))
        blob[at: at + 4] = (SNAPSHOT_VERSION - 1).to_bytes(4, "big")
        with pytest.raises(SnapshotError, match="version"):
            restore_network(bytes(blob))


class TestHitMiss:
    def test_get_on_empty_store_is_a_miss(self, store):
        assert store.get(SPEC) is None
        assert store.counters() == {
            "hits": 0, "misses": 1, "build_seconds": 0.0,
        }

    def test_put_then_get_round_trips(self, store):
        blob = pickle.dumps({"state": list(range(100))})
        store.put(SPEC, blob)
        assert store.get(SPEC) == blob
        assert store.hits == 1

    def test_load_or_build_builds_once_then_hits(self, store):
        calls = []

        def build():
            calls.append(1)
            return b"payload"

        blob, hit = store.load_or_build(SPEC, build)
        assert (blob, hit) == (b"payload", False)
        blob, hit = store.load_or_build(SPEC, build)
        assert (blob, hit) == (b"payload", True)
        assert len(calls) == 1
        assert store.build_seconds > 0.0

    def test_different_specs_do_not_collide(self, store):
        store.put(SPEC, b"a")
        store.put({**SPEC, "r": 16}, b"b")
        assert store.get(SPEC) == b"a"
        assert store.get({**SPEC, "r": 16}) == b"b"


class TestAtomicityAndLayout:
    def test_blob_lands_under_two_hex_fanout(self, store):
        path = store.put(SPEC, b"x")
        key = checkpoint_key(SPEC)
        assert path == store.root / key[:2] / f"{key}.ckpt"
        assert path.exists()

    def test_no_tmp_files_left_behind(self, store):
        store.put(SPEC, b"x" * 4096)
        leftovers = [
            p for p in store.root.rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_overwrite_is_atomic_replace(self, store):
        store.put(SPEC, b"old")
        store.put(SPEC, b"new")
        assert store.get(SPEC) == b"new"


class TestCorruption:
    def _corrupt(self, store, mutate):
        path = store.put(SPEC, b"payload-bytes")
        raw = bytearray(path.read_bytes())
        path.write_bytes(bytes(mutate(raw)))
        return path

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: raw[: len(raw) // 2],          # truncated
            lambda raw: b"garbage" + bytes(raw),       # bad magic
            lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),  # payload flip
        ],
        ids=["truncated", "bad-magic", "bitflip"],
    )
    def test_corrupt_blob_is_quarantined_miss(self, store, mutate):
        path = self._corrupt(store, mutate)
        assert store.get(SPEC) is None
        assert store.misses == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_store_heals_after_corruption(self, store):
        self._corrupt(store, lambda raw: raw[:20])
        blob, hit = store.load_or_build(SPEC, lambda: b"rebuilt")
        assert (blob, hit) == (b"rebuilt", False)
        assert store.get(SPEC) == b"rebuilt"

    def test_future_format_version_reads_as_miss(self, store):
        path = store.put(SPEC, b"payload")
        raw = bytearray(path.read_bytes())
        raw[8:12] = (99).to_bytes(4, "big")
        path.write_bytes(bytes(raw))
        assert store.get(SPEC) is None
