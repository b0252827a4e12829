"""Unit tests for the local advertisement cache."""

import pytest

from repro.advertisement import AdvertisementCache, FakeAdvertisement


def adv(name, payload=""):
    return FakeAdvertisement(name, payload)


class TestPublish:
    def test_publish_and_get(self):
        cache = AdvertisementCache()
        a = adv("x")
        cache.publish(a, now=0.0, lifetime=100.0)
        assert cache.get(a, now=50.0).adv == a
        assert a in cache

    def test_lifetime_expiry(self):
        cache = AdvertisementCache()
        a = adv("x")
        cache.publish(a, now=0.0, lifetime=100.0)
        assert cache.get(a, now=100.0) is None

    def test_republish_resets_expiry(self):
        cache = AdvertisementCache()
        a = adv("x")
        cache.publish(a, now=0.0, lifetime=100.0)
        cache.publish(a, now=90.0, lifetime=100.0)
        assert cache.get(a, now=150.0) is not None
        assert len(cache) == 1

    def test_nonpositive_lifetime_rejected(self):
        with pytest.raises(ValueError):
            AdvertisementCache().publish(adv("x"), now=0.0, lifetime=0.0)


class TestRemote:
    def test_store_remote_uses_expiration(self):
        cache = AdvertisementCache()
        a = adv("x")
        cache.store_remote(a, now=0.0, expiration=10.0)
        assert cache.get(a, now=5.0) is not None
        assert cache.get(a, now=10.0) is None

    def test_remote_does_not_clobber_local(self):
        cache = AdvertisementCache()
        a = adv("x")
        cache.publish(a, now=0.0, lifetime=1000.0)
        entry = cache.store_remote(a, now=1.0, expiration=10.0)
        assert entry.local
        assert cache.get(a, now=500.0) is not None

    def test_remote_replaces_expired_local(self):
        cache = AdvertisementCache()
        a = adv("x")
        cache.publish(a, now=0.0, lifetime=10.0)
        entry = cache.store_remote(a, now=20.0, expiration=10.0)
        assert not entry.local

    def test_nonpositive_expiration_rejected(self):
        with pytest.raises(ValueError):
            AdvertisementCache().store_remote(adv("x"), now=0.0, expiration=0.0)


class TestMaintenance:
    def test_purge_expired(self):
        cache = AdvertisementCache()
        cache.publish(adv("a"), now=0.0, lifetime=10.0)
        cache.publish(adv("b"), now=0.0, lifetime=100.0)
        dropped = cache.purge_expired(now=50.0)
        assert dropped == 1
        assert len(cache) == 1
        assert cache.purged == 1

    def test_flush_clears_everything(self):
        cache = AdvertisementCache()
        for i in range(5):
            cache.publish(adv(f"a{i}"), now=0.0)
        assert cache.flush() == 5
        assert len(cache) == 0

    def test_remove(self):
        cache = AdvertisementCache()
        a = adv("x")
        cache.publish(a, now=0.0)
        assert cache.remove(a)
        assert not cache.remove(a)


class TestSearch:
    def _loaded(self):
        cache = AdvertisementCache()
        cache.publish(adv("alpha"), now=0.0, lifetime=1000.0)
        cache.publish(adv("alphabet"), now=0.0, lifetime=1000.0)
        cache.publish(adv("beta"), now=0.0, lifetime=1000.0)
        return cache

    def test_exact_match(self):
        found = self._loaded().search(
            "repro:FakeAdvertisement", "Name", "alpha", now=1.0
        )
        assert [a.name for a in found] == ["alpha"]

    def test_wildcard_match(self):
        found = self._loaded().search(
            "repro:FakeAdvertisement", "Name", "alpha*", now=1.0
        )
        assert sorted(a.name for a in found) == ["alpha", "alphabet"]

    def test_type_only_query(self):
        found = self._loaded().search(
            "repro:FakeAdvertisement", None, None, now=1.0
        )
        assert len(found) == 3

    def test_any_type_query(self):
        found = self._loaded().search(None, None, None, now=1.0)
        assert len(found) == 3

    def test_wrong_type_returns_nothing(self):
        assert self._loaded().search("jxta:PA", "Name", "alpha", now=1.0) == []

    def test_expired_excluded_from_search(self):
        cache = AdvertisementCache()
        cache.publish(adv("x"), now=0.0, lifetime=10.0)
        assert cache.search(None, None, None, now=20.0) == []

    def test_limit(self):
        found = self._loaded().search(
            "repro:FakeAdvertisement", None, None, now=1.0, limit=2
        )
        assert len(found) == 2

    @pytest.mark.parametrize("limit", [0, -1])
    @pytest.mark.parametrize("query", [
        ("repro:FakeAdvertisement", "Name", "alpha"),  # index probe, a hit
        ("repro:FakeAdvertisement", "Name", "alpha*"),  # glob scan
        ("repro:FakeAdvertisement", "Name", None),  # presence scan
        ("repro:FakeAdvertisement", None, None),  # type-only scan
        (None, "Name", "alpha"),  # any-type scan
        (None, None, None),
    ])
    def test_nonpositive_limit_returns_nothing(self, query, limit):
        # the result loop used to append before it tested the limit
        cache = self._loaded()
        assert cache.search(*query, now=1.0) != []
        assert cache.search(*query, now=1.0, limit=limit) == []

    def test_glob_value_matches_by_fnmatch_only(self):
        # a value with metacharacters is a pattern, never a literal: the
        # stored literal "a[b]" is not what the pattern "a[b]" matches
        cache = AdvertisementCache()
        for name in ("a[b]", "ab"):
            cache.publish(adv(name), now=0.0)
        for adv_type in ("repro:FakeAdvertisement", None):
            found = cache.search(adv_type, "Name", "a[b]", now=1.0)
            assert [a.name for a in found] == ["ab"]
            found = cache.search(adv_type, "Name", "a[[]b]", now=1.0)
            assert [a.name for a in found] == ["a[b]"]

    def test_entries_iterator_filters_by_now(self):
        cache = AdvertisementCache()
        cache.publish(adv("a"), now=0.0, lifetime=10.0)
        cache.publish(adv("b"), now=0.0, lifetime=100.0)
        assert len(list(cache.entries(now=50.0))) == 1
        assert len(list(cache.entries())) == 2


class TestIndexMaintenance:
    """White-box checks of the query indexes added for paper-scale runs."""

    def _rdv(self, n, name):
        from repro.advertisement.rdvadv import RdvAdvertisement
        from repro.ids.jxtaid import NET_PEER_GROUP_ID, PeerID

        return RdvAdvertisement(
            rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
            group_id=NET_PEER_GROUP_ID,
            name=name,
        )

    def test_overwrite_reindexes_changed_fields(self):
        # same unique key (peer, group), different indexed Name
        cache = AdvertisementCache()
        cache.publish(self._rdv(1, "alpha"), now=0.0)
        cache.publish(self._rdv(1, "beta"), now=0.0)
        assert len(cache) == 1
        t = self._rdv(1, "beta").ADV_TYPE
        assert [a.name for a in cache.search(t, "Name", "beta", now=1.0)] == ["beta"]
        assert cache.search(t, "Name", "alpha", now=1.0) == []

    def test_results_in_insertion_order_with_limit(self):
        cache = AdvertisementCache()
        for name in ("c", "a", "b"):
            cache.publish(adv(name), now=0.0)
        found = cache.search(None, None, None, now=1.0, limit=2)
        assert [a.name for a in found] == ["c", "a"]
        found = cache.search("repro:FakeAdvertisement", "Name", "*", now=1.0)
        assert [a.name for a in found] == ["c", "a", "b"]

    def test_remove_then_reinsert_moves_to_end(self):
        cache = AdvertisementCache()
        for name in ("a", "b", "c"):
            cache.publish(adv(name), now=0.0)
        cache.remove(adv("a"))
        cache.publish(adv("a"), now=0.0)
        found = cache.search(None, None, None, now=1.0)
        assert [a.name for a in found] == ["b", "c", "a"]

    def test_incremental_purge_skips_stale_heap_records(self):
        cache = AdvertisementCache()
        cache.publish(adv("x"), now=0.0, lifetime=10.0)
        cache.publish(adv("x"), now=0.0, lifetime=1000.0)  # refresh
        # the first copy would have expired at t=10 but was replaced:
        # nothing of it may purge (or double-count) the live one
        assert cache.purge_expired(now=20.0) == 0
        assert cache.get(adv("x"), now=20.0) is not None
        assert cache.purge_expired(now=2000.0) == 1
        assert len(cache) == 0

    def test_removed_advertisements_leave_no_bucket_behind(self):
        cache = AdvertisementCache()
        advs = [adv("a"), adv("b"), self._rdv(1, "a"), self._rdv(2, "a")]
        for a in advs:
            cache.publish(a, now=0.0, lifetime=10.0)
        assert cache._by_attr
        assert cache.remove(advs[0]) and cache.remove(advs[2])
        assert cache.purge_expired(now=10.0) == 2
        assert len(cache) == 0
        assert cache._by_attr == {}

    def test_single_member_bucket_is_stored_inline(self):
        # 0 -> 1 -> 2 -> 1 -> 0 keys under one index tuple
        cache = AdvertisementCache()
        first, second = self._rdv(1, "shared"), self._rdv(2, "shared")
        (index_tuple,) = [t for t in first.index_tuples() if t[1] == "Name"]
        search = lambda: cache.search(  # noqa: E731
            first.ADV_TYPE, "Name", "shared", now=1.0)
        assert search() == []
        cache.publish(first, now=0.0)
        assert cache._by_attr[index_tuple] == first.unique_key()
        assert search() == [first]
        cache.publish(second, now=0.0)
        assert list(cache._by_attr[index_tuple]) == [
            first.unique_key(), second.unique_key()]
        assert search() == [first, second]
        assert search() == cache.search(None, "Name", "shared", now=1.0)
        cache.remove(first)
        assert search() == [second]
        cache.remove(second)
        assert search() == []
        assert index_tuple not in cache._by_attr

    def test_index_is_keyed_by_the_advertisements_own_tuples(self):
        cache = AdvertisementCache()
        doc = adv("a")
        cache.publish(doc, now=0.0)
        (held,) = cache._by_attr
        assert held is doc.index_tuples()[0]

    def test_overwriting_one_key_retains_nothing_per_store(self):
        # a searcher that keeps asking for the same item stores a fresh
        # copy per answer; the superseded copies must all be freed
        import gc
        import sys

        cache = AdvertisementCache()
        cache.store_remote(adv("hot"), now=0.0)
        gc.collect()
        before = sys.getallocatedblocks()
        for i in range(5000):
            cache.store_remote(adv("hot"), now=float(i))
        gc.collect()
        assert sys.getallocatedblocks() - before < 100
        assert len(cache) == 1 and cache.inserts == 5001

    def test_publishing_a_shared_document_allocates_two_blocks(self):
        # the workload's catalog documents are shared by every cache
        # that stores them: a further publish may allocate its entry and
        # the entry's `expires_at`, but no key string (memoised on the
        # document), no index tuple or bucket of its own and no ordinal
        import gc
        import sys

        n = 5000
        docs = [adv(f"item-{i:05d}") for i in range(n)]
        first, second = AdvertisementCache(), AdvertisementCache()
        for doc in docs:
            first.publish(doc, now=0.0)
        gc.collect()
        before = sys.getallocatedblocks()
        for doc in docs:
            second.publish(doc, now=1.0)
        gc.collect()
        assert sys.getallocatedblocks() - before <= 2 * n + 50
        assert len(second) == n
        assert all(k1 is k2 for k1, k2 in zip(first._entries, second._entries))

    def test_flush_clears_indexes(self):
        cache = AdvertisementCache()
        cache.publish(adv("a"), now=0.0)
        assert cache.flush() == 1
        assert cache.search(None, None, None, now=0.0) == []
        assert cache.search("repro:FakeAdvertisement", "Name", "a", now=0.0) == []
        cache.publish(adv("a"), now=0.0)
        assert [a.name for a in cache.search(None, "Name", "a", now=0.0)] == ["a"]
