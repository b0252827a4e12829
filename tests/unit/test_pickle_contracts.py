"""Pickle contracts of the snapshot-critical classes.

Every class that carries derived or process-local state (memo caches,
legitimately unset slots)
defines an explicit ``__getstate__``/``__setstate__`` pair so a
:mod:`repro.snapshot` blob round-trips exactly.  One test class per
audited type; each asserts both directions of the contract:

* derived state is *dropped* (pickle bytes do not depend on whether a
  cache happened to be populated before the snapshot), and
* the restored object *recomputes* it correctly on demand.
"""

import pickle

import pytest

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.discovery.service import DiscoveryQueryPayload
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.ids.intern import IdInternTable
from repro.network.latency import ConstantLatency
from repro.network.transport import Network
from repro.rendezvous.peerview import PeerView
from repro.resolver.messages import ResolverQuery
from repro.sim import Simulator
from repro.sim.kernel import EventHandle, SchedulingError
from repro.sim.rng import RngRegistry
from repro.snapshot import restore_network, snapshot_network


def pid(n):
    return PeerID.from_int(NET_PEER_GROUP_ID, n)


def _noop(*args):
    """Module-level so scheduled events pickle by reference."""


def rdv_adv(n):
    return RdvAdvertisement(
        rdv_peer_id=pid(n),
        group_id=NET_PEER_GROUP_ID,
        name=f"rdv-{n}",
        route_hint=f"tcp://host-{n}:9701",
    )


class TestEventHandle:
    def test_pending_handle_keeps_simulator_backref(self):
        sim = Simulator(seed=7)
        fired = []
        sim.schedule(5.0, fired.append, "a", label="ev-a")
        sim.schedule(9.0, fired.append, "b", label="ev-b")
        sim2 = pickle.loads(pickle.dumps(sim))
        # the handles inside the queue entries resolved their _state
        # backref through the pickle memo: cancelling one must mutate
        # the *restored* simulator, not blow up on a stale reference
        sim2.run(until=10.0)
        assert sim2.now == 10.0

    def test_fast_path_handle_with_unset_slots(self):
        # schedule() writes only _state plus one of _label/fn; the
        # remaining slots are legitimately unset and must not break
        # __getstate__
        sim = Simulator(seed=7)
        handle = sim.schedule(1.0, _noop)
        clone = pickle.loads(pickle.dumps(handle))
        assert clone.label == handle.label

    def test_state_holds_only_what_schedule_writes(self):
        # fire time, seq and args live in the heap entry; the
        # handle pickles its lifecycle state plus one of fn / _label
        assert EventHandle.__slots__ == ("fn", "_label", "_state")
        sim = Simulator(seed=7)
        plain = sim.schedule(1.0, _noop, "x")
        labelled = sim.schedule(1.0, _noop, "x", label="ev")
        assert set(plain.__getstate__()) == {"fn", "_state"}
        assert set(labelled.__getstate__()) == {"_label", "_state"}

    @pytest.mark.parametrize("state", [None, False], ids=["cancelled", "fired"])
    def test_settled_handle_round_trip_is_byte_stable(self, state):
        handle = EventHandle.__new__(EventHandle)
        handle._label = "settled"
        handle._state = state
        blob = pickle.dumps(handle)
        clone = pickle.loads(blob)
        assert clone._state is state
        assert pickle.dumps(clone) == blob


class TestSimulator:
    def test_restored_run_fires_identical_sequence(self):
        sim_a = Simulator(seed=3)
        for i, delay in enumerate([1.0, 2.5, 2.5, 7.0]):
            sim_a.schedule(delay, _noop, i, label=f"ev-{i}")
        sim_b = pickle.loads(pickle.dumps(sim_a))
        sim_a.run(until=10.0)
        sim_b.run(until=10.0)
        assert sim_a.now == sim_b.now
        assert sim_a._seq == sim_b._seq
        assert sim_a._events_fired == sim_b._events_fired

    # the ids name the two schedulers the kernel had until it became one
    # event heap; both run it
    @pytest.mark.parametrize("repeat", ["wheel", "heap"])
    def test_round_trip_is_byte_stable(self, repeat):
        # fired, pending and tombstoned entries
        sim = Simulator(seed=3)
        for i, delay in enumerate([0.1, 0.2, 0.3, 0.3, 7.0, 500.0]):
            sim.schedule(delay, _noop, i, label=f"ev-{i}")
        sim.schedule(30.0, _noop).cancel()
        sim.run(until=0.25)
        sim.schedule(0.01, _noop, "into-window")
        blob = pickle.dumps(sim)
        clone = pickle.loads(blob)
        assert pickle.dumps(clone) == blob

    def test_refuses_to_pickle_mid_run(self):
        sim = Simulator(seed=3)
        sim.schedule(1.0, lambda: None)
        sim._running = True
        try:
            with pytest.raises(SchedulingError):
                pickle.dumps(sim)
        finally:
            sim._running = False


class TestRngRegistry:
    def test_cached_stream_references_stay_shared(self):
        reg = RngRegistry(99)
        stream = reg.stream("transport.latency")
        [stream.random() for _ in range(5)]
        reg2, stream2 = pickle.loads(pickle.dumps((reg, stream)))
        # a component that cached the stream object must keep drawing
        # from the registry's sequence after restore
        assert reg2.stream("transport.latency") is stream2
        assert stream2.random() == stream.random()

    def test_unnamed_streams_created_identically_after_restore(self):
        reg = RngRegistry(99)
        reg2 = pickle.loads(pickle.dumps(reg))
        assert reg2.stream("fresh").random() == reg.stream("fresh").random()

    def test_draw_counts_round_trip_byte_stably(self):
        reg = RngRegistry(99)
        reg.stream("transport.latency").random()
        for name in ("jitter:a", "jitter:b", "jitter:a"):
            reg.next_uniform(name, 0.0, 10.0)
        blob = pickle.dumps(reg)
        reg2 = pickle.loads(blob)
        assert pickle.dumps(reg2) == blob
        assert reg2._draws == {"jitter:a": 2, "jitter:b": 1}
        # the restored counts continue the same sequences
        assert reg2.next_uniform("jitter:a", 0.0, 10.0) == reg.next_uniform(
            "jitter:a", 0.0, 10.0
        )
        with pytest.raises(ValueError):
            reg2.stream("jitter:b")


class TestEndpointRouter:
    """``_routes`` is a list indexed by interned peer key with ``None``
    slots for peers without a route: both, and the address strings the
    slots share with the rest of the graph, survive a snapshot."""

    def test_route_table_round_trips_byte_stably(self):
        from repro.endpoint import EndpointService
        from repro.network.site import place_nodes

        sim = Simulator(seed=11)
        net = Network(sim, latency=ConstantLatency(0.001))
        for n in range(1, 6):
            net.interner.intern(pid(n))
        svc = EndpointService(sim, net, pid(0), place_nodes(1)[0], "tcp://h0:1")
        router = svc.router
        router.add_direct_route(pid(2), "tcp://h2:1")
        router.add_direct_route(pid(4), "tcp://h4:1")
        router.add_direct_route(pid(7), "tcp://h7:1")  # past the end
        router.remove_route(pid(2))
        routes = router._routes
        assert len(routes) == net.interner.lookup(pid(7)) + 1
        assert {type(r) for r in routes} == {type(None), str}
        blob = pickle.dumps(router)
        assert pickle.dumps(router) == blob
        clone = pickle.loads(blob)
        # the restored copy's blob is a fixpoint (it differs from the
        # first only in how unpickled ``__dict__`` key strings are shared)
        blob2 = pickle.dumps(clone)
        assert pickle.dumps(pickle.loads(blob2)) == blob2
        assert clone._routes == routes
        for n in range(8):
            assert clone.resolve(pid(n)) == router.resolve(pid(n))
        assert clone.route_table_size() == router.route_table_size() == 2


class TestJxtaID:
    def test_urn_cache_and_intern_key_are_dropped(self):
        table = IdInternTable()
        jid = pid(17)
        urn = jid.urn()  # populates _urn
        table.intern(jid)  # populates _intern
        clone = pickle.loads(pickle.dumps(jid))
        assert clone == jid
        for slot in ("_urn", "_intern"):
            assert not hasattr(clone, slot)
        assert clone.urn() == urn

    def test_pickle_bytes_independent_of_cache_population(self):
        fresh = pid(17)
        cached = pid(17)
        cached.urn()
        IdInternTable().intern(cached)
        assert pickle.dumps(fresh) == pickle.dumps(cached)


class TestNetwork:
    def test_cached_bound_methods_follow_restored_simulator(self):
        sim = Simulator(seed=11)
        net = Network(sim, latency=ConstantLatency(0.001))
        net2 = pickle.loads(pickle.dumps(net))
        # the restored network's cached bound methods point at the
        # restored simulator (memo sharing), not the original
        assert net2.sim is not sim
        assert net2._schedule.__self__ is net2.sim

    def test_round_trip_is_byte_stable(self):
        net = Network(Simulator(seed=11), latency=ConstantLatency(0.001))
        blob = pickle.dumps(net)
        assert pickle.dumps(net) == blob
        # the restored copy's blob is a fixpoint (it differs from the
        # first only in how unpickled ``__dict__`` key strings are shared)
        blob2 = pickle.dumps(pickle.loads(blob))
        assert pickle.dumps(pickle.loads(blob2)) == blob2


class TestSharedOrderingTokens:
    """``PeerView._order`` holds the intern table's ``(bytes, key)``
    tokens, one tuple per peer shared by every view.  The pickle memo
    must keep that sharing — a restored r = 580 overlay that held one
    tuple per (view, entry) again would give the memory back."""

    MEMBERS = (10, 30, 50, 70)

    def _network_with_views(self):
        net = Network(Simulator(seed=11), latency=ConstantLatency(0.001))
        views = [
            PeerView(rdv_adv(n), interner=net.interner) for n in self.MEMBERS
        ]
        for view in views:
            for n in self.MEMBERS:
                view.upsert(rdv_adv(n), now=0.0)
        return net, views

    @staticmethod
    def _assert_shared(table, views):
        slots = [token for view in views for token in view._order]
        assert len(slots) > len(table)
        for token in slots:
            assert token is table.order_token(token[1])
        assert len({id(token) for token in slots}) == len(table)

    def test_round_trip_is_byte_stable_and_keeps_the_sharing(self):
        net, views = self._network_with_views()
        self._assert_shared(net.interner, views)
        blob = pickle.dumps((net, views))
        net2, views2 = pickle.loads(blob)
        self._assert_shared(net2.interner, views2)
        assert net2.interner is not net.interner
        assert [v.ordered_ids() for v in views2] == [
            v.ordered_ids() for v in views
        ]
        # the original re-pickles to the same bytes after those queries;
        # the restored copy's blob is a fixpoint (it differs from the
        # first only in how unpickled ``__dict__`` key strings are
        # shared — see test_snapshot_restore)
        assert pickle.dumps((net, views)) == blob
        blob2 = pickle.dumps((net2, views2))
        assert pickle.dumps(pickle.loads(blob2)) == blob2

    def test_restored_views_keep_adding_table_tokens(self):
        net, views = pickle.loads(pickle.dumps(self._network_with_views()))
        views[0].upsert(rdv_adv(90), now=1.0)
        views[1].upsert(rdv_adv(90), now=1.0)
        views[0].remove(pid(30), now=2.0)
        self._assert_shared(net.interner, views)
        assert views[0].rank_of(pid(90)) == views[0].member_count() - 1

    def test_snapshot_of_an_overlay_holds_one_token_per_peer(self):
        sim = Simulator(seed=5)
        network = Network(sim)
        overlay = build_overlay(
            sim, network, PlatformConfig(),
            OverlayDescription(rendezvous_count=6, topology="chain"),
        )
        overlay.start()
        sim.run(until=180.0)
        assert sum(r.view.size for r in overlay.rendezvous) >= 12
        # one pickled tuple comes back as one object, so distinct
        # token objects in the restored graph count pickled tokens
        network2, overlay2 = restore_network(
            snapshot_network(network, extra=overlay)
        )
        self._assert_shared(
            network2.interner, [r.view for r in overlay2.rendezvous]
        )


class TestAdvertisement:
    def test_size_memo_dropped_and_recomputed(self):
        adv = rdv_adv(3)
        size = adv.size_bytes()  # populates _size_cache
        assert "_size_cache" in adv.__dict__
        clone = pickle.loads(pickle.dumps(adv))
        assert "_size_cache" not in clone.__dict__
        assert clone.size_bytes() == size

    def test_pickle_bytes_independent_of_size_memo(self):
        fresh = rdv_adv(3)
        queried = rdv_adv(3)
        queried.size_bytes()
        assert pickle.dumps(fresh) == pickle.dumps(queried)


    def test_index_memo_dropped_and_recomputed(self):
        adv = rdv_adv(3)
        tuples = adv.index_tuples()  # populates _index_cache
        assert adv.index_tuples() is tuples
        clone = pickle.loads(pickle.dumps(adv))
        assert "_index_cache" not in clone.__dict__
        assert clone.index_tuples() == tuples

    def test_key_memo_dropped_and_recomputed(self):
        adv = rdv_adv(3)
        key = adv.unique_key()  # populates _key_cache
        assert adv.unique_key() is key
        assert "_key_cache" not in adv.__getstate__()
        clone = pickle.loads(pickle.dumps(adv))
        assert "_key_cache" not in clone.__dict__
        assert clone.unique_key() == key

    def test_pickle_bytes_independent_of_either_memo(self):
        fresh = rdv_adv(3)
        queried = rdv_adv(3)
        queried.index_tuples()
        queried.size_bytes()
        queried.unique_key()
        assert pickle.dumps(fresh) == pickle.dumps(queried)

    def test_field_write_drops_both_memos(self):
        adv = rdv_adv(3)
        size, tuples = adv.size_bytes(), adv.index_tuples()
        adv.unique_key()
        adv.name = "renamed-and-longer"
        assert "_size_cache" not in adv.__dict__
        assert "_index_cache" not in adv.__dict__
        assert "_key_cache" not in adv.__dict__
        assert adv.size_bytes() > size
        assert (adv.ADV_TYPE, "Name", "renamed-and-longer") in adv.index_tuples()
        assert (adv.ADV_TYPE, "Name", "rdv-3") in tuples  # the old one is immutable


class TestIndexBuckets:
    """``AdvertisementCache._by_attr`` and ``SrdiIndex._index`` store a
    single member inline and several in a container, keyed by the
    advertisements' own (shared) index tuples.  Both forms, and the
    sharing, must survive a snapshot."""

    def _cache_and_index(self):
        from repro.advertisement import AdvertisementCache, FakeAdvertisement
        from repro.discovery.srdi import SrdiIndex

        cache = AdvertisementCache()
        index = SrdiIndex()
        docs = [FakeAdvertisement("solo"), rdv_adv(1), rdv_adv(2)]
        docs[2].name = docs[1].name  # two keys under one Name tuple
        for doc in docs:
            cache.publish(doc, now=0.0)
            for index_tuple in doc.index_tuples():
                index.add(index_tuple, pid(1), "tcp://p1:1", 0.0, 100.0)
        for index_tuple in docs[1].index_tuples():
            index.add(index_tuple, pid(2), "tcp://p2:1", 1.0, 100.0)
        return cache, index, docs

    @staticmethod
    def _answers(cache, index, docs):
        return [
            [
                [a.unique_key() for a in cache.search(*t, now=5.0)],
                [
                    (r.publisher, r.publisher_address, r.expires_at)
                    for r in index.lookup(t, now=5.0)
                ],
            ]
            for doc in docs for t in doc.index_tuples()
        ] + [index.tuples(), len(index), index.inserts, len(cache)]

    def test_mixed_buckets_round_trip_byte_stably(self):
        cache, index, docs = self._cache_and_index()
        forms = lambda d: {type(v) for v in d.values()}  # noqa: E731
        assert forms(cache._by_attr) == {str, dict}
        assert len(forms(index._index)) == 2  # record and dict
        assert forms(index._by_publisher) == {list}
        blob = pickle.dumps((cache, index))
        cache2, index2 = pickle.loads(blob)
        blob2 = pickle.dumps((cache2, index2))
        assert blob2 == blob  # every container pickles in its own order
        assert forms(cache2._by_attr) == {str, dict}
        assert len(forms(index2._index)) == 2
        assert [list(b) for b in cache2._by_attr.values()] == [
            list(b) for b in cache._by_attr.values()
        ]
        assert index2._by_publisher == index._by_publisher
        assert self._answers(cache2, index2, docs) == self._answers(
            cache, index, docs
        )
        # on either side the queries (and the memos they fill in the
        # documents) leave nothing that reaches the pickle
        assert pickle.dumps((cache, index)) == blob
        assert pickle.dumps((cache2, index2)) == blob2

    def test_one_tuple_per_fact_survives_the_round_trip(self):
        cache, index, _ = pickle.loads(pickle.dumps(self._cache_and_index()))
        by_value = {t: t for t in cache._by_attr}
        assert len(index._index) == len(by_value)
        for index_tuple in index._index:
            assert index_tuple is by_value[index_tuple]
        for tuples in index._by_publisher.values():
            for index_tuple in tuples:
                assert index_tuple is by_value[index_tuple]

    def test_one_record_per_push_survives_the_round_trip(self):
        _, index, docs = self._cache_and_index()

        def sharing(idx):
            """Slots grouped by record object, and where ``_last`` is."""
            slots = [
                r for b in idx._index.values()
                for r in (b.values() if type(b) is dict else (b,))
            ]
            first = {}
            for at, r in enumerate(slots):
                first.setdefault(id(r), at)
            return [first[id(r)] for r in slots], first.get(id(idx._last))

        groups, last_at = sharing(index)
        # the two pushes of _cache_and_index: one record each
        assert len(set(groups)) == 2 and len(groups) == len(index) == 8
        assert last_at is not None
        blob = pickle.dumps(index)
        index2 = pickle.loads(blob)
        assert sharing(index2) == (groups, last_at)
        assert pickle.dumps(index2) == blob
        # the memo wrote each record once: an unshared copy is larger
        unshared = pickle.loads(blob)
        unshared._index = {  # every bucket a private copy of its records
            t: pickle.loads(pickle.dumps(b)) for t, b in unshared._index.items()
        }
        assert len(pickle.dumps(unshared)) > len(blob)
        # a restored index goes on sharing with the record it remembers
        extra = docs[0].ADV_TYPE, "Name", "late"
        for idx in (index, index2):
            idx.add(extra, pid(2), "tcp://p2:1", 1.0, 100.0)
            assert idx._index[extra] is idx._last
            assert sharing(idx)[0][-1] == last_at

    def test_restored_buckets_keep_working(self):
        cache, index, docs = pickle.loads(
            pickle.dumps(self._cache_and_index())
        )
        # the restored documents rebuild their memo: equal tuples, other
        # objects — every bucket must still be found by value
        key1, key2 = index.interner.lookup(pid(1)), index.interner.lookup(pid(2))
        assert index.purge_expired(100.5) == 5  # pid(1)'s, added at t = 0
        assert list(index._by_publisher) == [key2]
        index.add(docs[0].index_tuples()[0], pid(1), "tcp://p1:1", 101.0, 9.0)
        assert index._by_publisher[key1] == [docs[0].index_tuples()[0]]
        assert index.remove_publisher(pid(1)) == 1
        assert index.remove_publisher(pid(2)) == 3
        assert index.tuples() == [] and len(index) == 0
        assert index._by_publisher == {}
        for doc in docs:
            assert cache.remove(doc)
        assert cache._by_attr == {}


class TestOrderedMembership:
    """``SrdiPusher._pushed`` and ``IDFactory._minted`` are membership
    tests kept in insertion-ordered dicts: the pickle lists them in the
    order they were filled, and the restored object goes on refusing
    what the original had seen."""

    def test_pusher_history_round_trips_in_push_order(self):
        from repro.advertisement import AdvertisementCache, FakeAdvertisement
        from repro.discovery.srdi import SrdiPusher

        sent = []
        cache = AdvertisementCache()
        pusher = SrdiPusher(Simulator(seed=1), cache, PlatformConfig(), sent.append)
        docs = [FakeAdvertisement(f"doc-{i}") for i in range(50)]
        for doc in docs:
            cache.publish(doc, now=0.0)
        pusher.push_now()
        pushed = [t for doc in docs for t in doc.index_tuples()]
        assert list(pusher._pushed) == pushed
        blob = pickle.dumps(pusher)
        clone = pickle.loads(blob)
        assert pickle.dumps(clone) == blob
        assert list(clone._pushed) == pushed
        clone.push_now()  # nothing new: the restored history still holds
        assert clone.pushes == 1
        clone.cache.publish(FakeAdvertisement("late"), now=1.0)
        clone.push_now()
        assert clone.pushes == 2 and len(clone._pushed) == len(pushed) + 1

    def test_id_factory_round_trips_and_mints_the_same_ids(self):
        import random

        from repro.ids.idfactory import IDFactory

        factory = IDFactory(random.Random(7))
        minted = [factory.new_peer_id() for _ in range(50)]
        assert list(factory._minted) == [p.unique_value for p in minted]
        blob = pickle.dumps(factory)
        clone = pickle.loads(blob)
        assert pickle.dumps(clone) == blob
        assert clone.new_peer_id() == factory.new_peer_id()
        assert len(clone._minted) == 51


class TestPusherJournal:
    """Mid-interval the cache's journal holds what the pusher's next tick
    will read: it travels with the cache, and the restored pusher's tick
    sends the payload the original's does, to the byte."""

    def test_pusher_pickled_with_a_pending_journal_sends_the_same_payload(self):
        from repro.advertisement import AdvertisementCache, FakeAdvertisement
        from repro.discovery.srdi import SrdiPusher

        sim = Simulator(seed=1)
        cache = AdvertisementCache()
        sent = []
        config = PlatformConfig().with_overrides(
            srdi_push_interval=30.0, startup_jitter=0.0
        )
        pusher = SrdiPusher(sim, cache, config, sent.append)
        pusher.start()
        for i in range(20):
            cache.publish(FakeAdvertisement(f"early-{i}"), now=0.0)
        sim.run(until=31.0)
        assert len(sent) == 1 and cache.journal == []
        for i in range(5):
            cache.publish(FakeAdvertisement(f"late-{i}"), now=sim.now)
        cache.publish(FakeAdvertisement("early-3"), now=sim.now)  # pushed already
        assert len(cache.journal) == 6
        blob = pickle.dumps((sim, pusher, sent))
        clone_sim, clone, clone_sent = pickle.loads(blob)
        assert pickle.dumps((clone_sim, clone, clone_sent)) == blob
        assert clone.cache.journal == cache.journal
        for s in (sim, clone_sim):
            s.run(until=61.0)
        assert len(sent) == len(clone_sent) == 2
        assert [t[2] for t, _ in sent[1].entries] == [f"late-{i}" for i in range(5)]
        assert pickle.dumps(clone_sent[1]) == pickle.dumps(sent[1])
        assert clone.cache.journal == cache.journal == []


class TestDiscoveryQuery:
    """The compiled query and its per-hop copies ride in every snapshot
    taken mid-walk: derived fields are slot fields, so they travel in
    the pickle instead of being re-derived (or lost) on restore."""

    def _query(self):
        payload = DiscoveryQueryPayload(
            "repro:FakeAdvertisement", "Name", "sensor-[12]*", threshold=2
        )
        return ResolverQuery(
            handler_name="jxta.service.discovery", query_id=7,
            src_peer=pid(3), src_route="tcp://host-3:9701", payload=payload,
        )

    def test_derived_fields_travel_with_a_routed_copy(self):
        query = self._query()
        sent = query.hopped(query.payload.routed(True, 1))
        clone = pickle.loads(pickle.dumps(sent))
        assert clone == sent and clone.hop_count == 1
        body = clone.payload
        assert (body.at_replica, body.walk_direction) == (True, 1)
        assert body.is_wildcard and body.is_complex and not body.is_range
        assert body.index_tuple == (
            "repro:FakeAdvertisement", "Name", "sensor-[12]*"
        )
        assert clone.size_bytes() == query.size_bytes()

    def test_neither_carries_a_dict(self):
        query = self._query()
        assert not hasattr(query, "__dict__")
        assert not hasattr(query.payload, "__dict__")

    def test_pickle_bytes_independent_of_how_the_copy_was_made(self):
        query = self._query()
        fresh = DiscoveryQueryPayload(
            query.payload.adv_type, query.payload.attribute,
            query.payload.value, threshold=2, at_replica=True,
            walk_direction=-1,
        )
        assert pickle.dumps(query.payload.routed(True, -1)) == pickle.dumps(fresh)


class TestPeerView:
    def _view(self):
        view = PeerView(rdv_adv(50))
        for n in (10, 30, 70):
            view.upsert(rdv_adv(n), now=0.0)
        return view

    def test_ordered_view_memo_dropped_and_recomputed(self):
        view = self._view()
        ordered = view.ordered_ids()  # populates _ordered_view
        assert view._ordered_view is not None
        clone = pickle.loads(pickle.dumps(view))
        assert clone._ordered_view is None
        assert clone.ordered_ids() == ordered

    def test_removed_member_leaves_no_stamp(self):
        # two views on one table and one set of advertisements (as on a
        # network): one saw peers 30 and 70 come and go, the other never
        # did
        table = IdInternTable()
        advs = {n: rdv_adv(n) for n in (10, 30, 50, 70)}
        churned = PeerView(advs[50], interner=table)
        for n in (10, 30, 70):
            churned.upsert(advs[n], now=2.0)
        churned.remove(pid(30), now=3.0)
        churned.remove(pid(70), now=3.0)
        never = PeerView(advs[50], interner=table)
        never.upsert(advs[10], now=2.0)
        # apart from the counters and the array length, the same bytes
        assert (churned.adds, churned.removes) == (3, 2)
        churned.adds, churned.removes = never.adds, never.removes
        tail = churned._stamps[len(never._stamps):]
        assert list(tail) == [0.0, 0.0]
        del churned._stamps[len(never._stamps):]
        assert pickle.dumps(churned) == pickle.dumps(never)

    def test_pickle_bytes_independent_of_query_history(self):
        quiet = self._view()
        queried = self._view()
        queried.ordered_ids()
        assert pickle.dumps(quiet) == pickle.dumps(queried)

    def test_restored_view_expires_like_the_original(self):
        # the entry map pickles in refresh order, the order expire reads
        view = self._view()
        view.upsert(rdv_adv(10), now=5.0)
        view.upsert(rdv_adv(90), now=6.0)
        view.upsert(rdv_adv(30), now=7.0)
        clone = pickle.loads(pickle.dumps(view))
        assert clone.known_ids() == view.known_ids()
        dropped = [pid(70), pid(10), pid(90)]
        assert clone.expire(56.5, 50.0) == view.expire(56.5, 50.0) == dropped
        assert clone.ordered_ids() == view.ordered_ids()
