"""The discovery service (publish + remote discovery over the LC-DHT).

One class serves both peer roles, as in JXTA-C:

* on an **edge peer** it publishes advertisements into the local cache,
  pushes their index tuples to the rendezvous via SRDI, answers
  queries forwarded to it (it is the publisher), and issues remote
  queries through its rendezvous;
* on a **rendezvous peer** it additionally maintains the SRDI store,
  replicates tuples to LC-DHT replica peers, and routes queries:
  local-hit → forward to publisher; miss → forward to the computed
  replica peer; miss at the replica → bidirectional peerview walk.

Per-query processing cost on a rendezvous is modeled as
``discovery_proc_cost + srdi_match_cost * |SRDI store|`` — matching a
query against a bigger store costs more, which is what makes the
paper's 5 000 fake advertisements hurt most when they are concentrated
on 5 rendezvous peers (Figure 4 right, curve B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.advertisement.base import Advertisement, DEFAULT_EXPIRATION, DEFAULT_LIFETIME, IndexTuple
from repro.advertisement.cache import AdvertisementCache, has_glob
from repro.config import PlatformConfig
from repro.discovery.rangequery import (
    is_range_query,
    numeric_value,
    parse_range_spec,
    tuple_in_range,
)
from repro.discovery.replica import ReplicaFunction
from repro.discovery.srdi import SrdiIndex, SrdiPayload, SrdiPusher
from repro.discovery.walker import WALK_NONE, walk_start_targets
from repro.ids.jxtaid import PeerID
from repro.rendezvous.lease import EdgeLeaseClient
from repro.rendezvous.peerview import PeerView
from repro.resolver.messages import ResolverQuery, ResolverResponse, ResolverSrdiMessage
from repro.resolver.service import QueryHandler, ResolverService
from repro.sim.kernel import Simulator

#: Resolver handler name for discovery traffic (as in JXTA).
DISCOVERY_HANDLER_NAME = "jxta.service.discovery"


@dataclass(slots=True)
class DiscoveryQueryPayload:
    """Body of a discovery resolver query, compiled where it is
    issued: what ``(adv_type, attribute, value)`` fix is derived once.
    Never mutated afterwards — a hop changes the routing state by
    building a :meth:`routed` copy that shares the derived fields."""

    adv_type: str
    attribute: str
    value: str
    threshold: int = 1
    #: LC-DHT routing state
    at_replica: bool = False
    walk_direction: int = WALK_NONE
    is_wildcard: bool = field(init=False)
    is_range: bool = field(init=False)
    #: Wildcard and range queries cannot be replica-routed (the hash of
    #: a pattern is meaningless); they walk the peerview.
    is_complex: bool = field(init=False)
    index_tuple: IndexTuple = field(init=False)
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        value = self.value
        self.is_wildcard = bool(has_glob(value))
        # a value without ".." is never a range: no parse for it
        self.is_range = ".." in value and is_range_query(value)
        self.is_complex = self.is_wildcard or self.is_range
        self.index_tuple = (self.adv_type, self.attribute, value)
        self.wire_size = 220 + len(self.adv_type) + len(self.attribute) + len(value)

    def routed(
        self, at_replica: bool, walk_direction: int
    ) -> "DiscoveryQueryPayload":
        """The same query with new LC-DHT routing state: one per hop,
        so filled slot by slot instead of re-deriving in ``__init__``."""
        new = object.__new__(DiscoveryQueryPayload)
        new.adv_type = self.adv_type
        new.attribute = self.attribute
        new.value = self.value
        new.threshold = self.threshold
        new.at_replica = at_replica
        new.walk_direction = walk_direction
        new.is_wildcard = self.is_wildcard
        new.is_range = self.is_range
        new.is_complex = self.is_complex
        new.index_tuple = self.index_tuple
        new.wire_size = self.wire_size
        return new

    def size_bytes(self) -> int:
        return self.wire_size


@dataclass(slots=True)
class DiscoveryResponsePayload:
    """Body of a discovery resolver response."""

    advertisements: List[Advertisement]
    expirations: List[float]
    answered_after_hops: int = 0

    def size_bytes(self) -> int:
        size = 160  # a loop, not sum() over a generator frame
        for adv in self.advertisements:
            size += adv.size_bytes()
        return size


@dataclass(slots=True)
class _Outstanding:
    """Searcher-side record of an in-flight remote query."""

    query_id: int
    sent_at: float
    threshold: int
    callback: Callable[[List[Advertisement], float], None]
    on_timeout: Optional[Callable[[], None]]
    received: List[Advertisement] = field(default_factory=list)
    timeout_handle: object = None
    done: bool = False


class DiscoveryService(QueryHandler):
    """Publish/discover advertisements over the LC-DHT."""

    #: Routing strategies: ``lcdht`` is JXTA 2.x (the paper's subject);
    #: ``flood`` is the JXTA 1.0 strategy the paper's related work [13]
    #: compares against — no replication, queries propagate everywhere.
    MODES = ("lcdht", "flood")

    def __init__(
        self,
        sim: Simulator,
        config: PlatformConfig,
        resolver: ResolverService,
        cache: AdvertisementCache,
        is_rendezvous: bool,
        view: Optional[PeerView] = None,
        lease_client: Optional[EdgeLeaseClient] = None,
        replica_fn: Optional[ReplicaFunction] = None,
        mode: str = "lcdht",
    ) -> None:
        if is_rendezvous and view is None:
            raise ValueError("a rendezvous discovery service needs a peerview")
        if not is_rendezvous and lease_client is None:
            raise ValueError("an edge discovery service needs a lease client")
        if mode not in self.MODES:
            raise ValueError(f"unknown discovery mode {mode!r}; known: {self.MODES}")
        self.mode = mode
        self.sim = sim
        self.config = config
        self.resolver = resolver
        self.cache = cache
        self.is_rendezvous = is_rendezvous
        self.view = view
        self.lease_client = lease_client
        self.replica_fn = replica_fn if replica_fn is not None else ReplicaFunction()
        self.srdi = (
            SrdiIndex(interner=resolver.endpoint.interner)
            if is_rendezvous else None
        )
        self._outstanding: Dict[int, _Outstanding] = {}
        self._net = resolver.endpoint.network
        self._actor = resolver.endpoint.transport_address
        # stats
        self.queries_handled = 0
        self.queries_forwarded_to_publisher = 0
        self.queries_forwarded_to_replica = 0
        self.walk_steps = 0
        self.responses_received = 0
        self.publishes = 0

        resolver.register_handler(DISCOVERY_HANDLER_NAME, self)

        if is_rendezvous:
            # periodic SRDI garbage collection: expired records must
            # not keep inflating the per-query matching cost.  A bound
            # method (not a lambda) so the service — and therefore any
            # network it belongs to — stays snapshot-picklable.
            from repro.sim.process import PeriodicTask

            self._srdi_gc = PeriodicTask(
                sim,
                5 * 60.0,
                self._purge_srdi,
                name=f"srdi-gc:{resolver.endpoint.peer_id.short()}",
                start_jitter=min(60.0, config.startup_jitter + 1.0),
            )
        else:
            self._srdi_gc = None
        if not is_rendezvous:
            self.pusher = SrdiPusher(
                sim, cache, config, self._send_srdi_payload,
                name=f"srdi:{resolver.endpoint.peer_id.short()}",
            )
        else:
            self.pusher = None

    # ------------------------------------------------------------------
    # maintenance lifecycle (rendezvous side)
    # ------------------------------------------------------------------
    def _purge_srdi(self) -> None:
        """Periodic-task callback: drop expired SRDI records."""
        self.srdi.purge_expired(self.sim.now)

    def start_maintenance(self) -> None:
        """Start the rendezvous-side SRDI garbage collector."""
        if self._srdi_gc is not None and not self._srdi_gc.started:
            self._srdi_gc.start()

    def stop_maintenance(self) -> None:
        if self._srdi_gc is not None and self._srdi_gc.started:
            self._srdi_gc.stop()

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        adv: Advertisement,
        lifetime: float = DEFAULT_LIFETIME,
        expiration: float = DEFAULT_EXPIRATION,
    ) -> None:
        """Publish an advertisement locally; its index tuples reach the
        rendezvous at the next SRDI push (≤ ``srdi_push_interval``)."""
        self.publishes += 1
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                self.sim.now, "discovery", "publish", self._actor,
                type=adv.ADV_TYPE,
            )
        self.cache.publish(adv, self.sim.now, lifetime, expiration)
        if self.is_rendezvous:
            # a rendezvous is its own rendezvous: index + replicate now
            payload = SrdiPayload(
                entries=[(t, expiration) for t in adv.index_tuples()],
                publisher_address=self.resolver.endpoint.advertised_address,
                publisher_peer=self.resolver.endpoint.peer_id,
            )
            self._index_and_replicate(
                payload, self.resolver.endpoint.peer_id, replicate=True
            )

    def _send_srdi_payload(self, payload: SrdiPayload) -> None:
        """Edge-side SRDI delivery to the current rendezvous."""
        rdv = self.lease_client.rdv_peer_id
        if rdv is None:
            return
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                self.sim.now, "srdi", "push", self._actor,
                entries=len(payload.entries),
            )
        payload.publisher_address = self.resolver.endpoint.advertised_address
        payload.publisher_peer = self.resolver.endpoint.peer_id
        self.resolver.send_srdi(rdv, DISCOVERY_HANDLER_NAME, payload)

    # ------------------------------------------------------------------
    # remote discovery (searcher side)
    # ------------------------------------------------------------------
    def get_remote_advertisements(
        self,
        adv_type: str,
        attribute: str,
        value: str,
        callback: Callable[[List[Advertisement], float], None],
        threshold: int = 1,
        on_timeout: Optional[Callable[[], None]] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Issue a remote discovery query.

        ``callback(advertisements, latency_seconds)`` fires when the
        threshold is reached (or at the first response for
        threshold=1).  Returns the query id.
        """
        now = self.sim.now
        payload = DiscoveryQueryPayload(adv_type, attribute, value, threshold)
        query = self.resolver.new_query(DISCOVERY_HANDLER_NAME, payload)
        query_id = query.query_id
        record = _Outstanding(query_id, now, threshold, callback, on_timeout)
        record.timeout_handle = self.sim.schedule(
            timeout if timeout is not None else self.config.discovery_query_timeout,
            self._query_timed_out,
            query_id,
            label="discovery.timeout",
        )
        self._outstanding[query_id] = record
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                now, "discovery", "query.issued", self._actor,
                qid=query_id, attr=attribute, value=value,
            )

        if self.is_rendezvous:
            # a rendezvous acts as its own rendezvous (Figure 2 note)
            self.resolver.inject_query(query)
        else:
            # EdgeLeaseClient.rdv_peer_id without its property frame
            rdv_adv = self.lease_client.rdv_adv
            if rdv_adv is None:
                raise RuntimeError(
                    "edge peer is not connected to a rendezvous; "
                    "call connect() and let the lease complete first"
                )
            self.resolver.send_query(rdv_adv.rdv_peer_id, query)
        return query_id

    def _query_timed_out(self, query_id: int) -> None:
        record = self._outstanding.pop(query_id, None)
        if record is None or record.done:
            return
        record.done = True
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                self.sim.now, "discovery", "query.timeout", self._actor,
                qid=query_id, partial=len(record.received),
            )
        if record.received:
            # partial results beat none: deliver what arrived
            record.callback(record.received, self.sim.now - record.sent_at)
        elif record.on_timeout is not None:
            record.on_timeout()

    def process_response(self, response: ResolverResponse) -> None:
        record = self._outstanding.get(response.query_id)
        if record is None or record.done:
            return
        payload = response.payload
        if not isinstance(payload, DiscoveryResponsePayload):
            return
        self.responses_received += 1
        now = self.sim.now
        received = record.received
        for adv, expiration in zip(payload.advertisements, payload.expirations):
            self.cache.store_remote(adv, now, max(expiration, 1.0))
            # deduplicate by key: a loop, not all() over a generator
            for seen in received:
                if seen.unique_key() == adv.unique_key():
                    break
            else:
                received.append(adv)
        if len(record.received) >= record.threshold:
            record.done = True
            if record.timeout_handle is not None:
                record.timeout_handle.cancel()
            del self._outstanding[response.query_id]
            latency = now - record.sent_at
            obs = self._net.obs
            if obs is not None and obs.active:
                obs.event(
                    now, "discovery", "query.completed", self._actor,
                    qid=response.query_id, hops=response.payload.answered_after_hops,
                )
                obs.observe("discovery", "query.latency", latency)
            record.callback(record.received, latency)

    # ------------------------------------------------------------------
    # query handling (publisher / rendezvous side)
    # ------------------------------------------------------------------
    def process_query(self, query: ResolverQuery) -> None:
        """Resolver entry point.  Processing is deferred by the modeled
        per-query cost; answers are sent explicitly, so this always
        returns None."""
        payload = query.payload
        if not isinstance(payload, DiscoveryQueryPayload):
            return None
        delay = self.config.discovery_proc_cost
        if self.srdi is not None:
            # the record count read off the index (no __len__ frame)
            delay += self.config.srdi_match_cost * self.srdi._count
        else:
            delay += self.config.srdi_match_cost * len(self.cache._entries)
        self.sim.schedule(delay, self._handle_query, query, label="discovery.handle")
        return None

    def process_srdi(self, message: ResolverSrdiMessage) -> None:
        if not self.is_rendezvous:
            return
        payload = message.payload
        if not isinstance(payload, SrdiPayload):
            return
        publisher = (
            payload.publisher_peer
            if payload.publisher_peer is not None
            else message.src_peer
        )
        self._index_and_replicate(
            payload, publisher, replicate=not payload.replicated
        )

    # ------------------------------------------------------------------
    def _index_and_replicate(
        self, payload: SrdiPayload, publisher: PeerID, replicate: bool
    ) -> None:
        """Store tuples locally and, unless this payload is already a
        replica copy, forward each tuple to its LC-DHT replica peer
        (Figure 2 left: R1 keeps a copy and sends the tuple to R4)."""
        now = self.sim.now
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                now, "srdi", "index", self._actor,
                entries=len(payload.entries), replica=payload.replicated,
            )
        for index_tuple, expiration in payload.entries:
            self.srdi.add(
                index_tuple, publisher, payload.publisher_address, now, expiration
            )
        if not replicate or self.mode == "flood":
            # JXTA 1.0: the edge's own rendezvous is the only index holder
            return
        local_key = self.view.local_key
        id_of = self.view.interner.id_of
        for entry in payload.entries:
            # key-level compare: "is the replica me?" runs once per
            # tuple per push, so it must not hash/compare PeerIDs
            replica_key = self._replica_key(entry[0])
            if replica_key is None or replica_key == local_key:
                continue
            self.resolver.send_srdi(
                id_of(replica_key),
                DISCOVERY_HANDLER_NAME,
                SrdiPayload(
                    entries=[entry],
                    publisher_address=payload.publisher_address,
                    publisher_peer=publisher,
                    replicated=True,
                ),
            )

    def _replica_key(self, index_tuple: IndexTuple) -> Optional[int]:
        """Interned key of ReplicaPeer(tuple) on the local peerview:
        ``PeerView.member_count`` and ``key_at`` read in place, since
        every miss at a rendezvous and every replicated tuple asks."""
        order = self.view._order
        count = len(order)
        if count == 0:
            return None
        return order[self.replica_fn.rank(index_tuple, count)][1]

    # ------------------------------------------------------------------
    def _handle_query(self, query: ResolverQuery) -> None:
        payload: DiscoveryQueryPayload = query.payload
        if self.is_rendezvous and query.hop_count > 2 * len(self.view._order) + 8:
            # a complete bidirectional walk never exceeds ~2·l hops;
            # anything beyond indicates a routing anomaly — drop rather
            # than circulate forever (queries are best-effort)
            return
        self.queries_handled += 1
        now = self.sim.now
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                now, "discovery", "query.handled", self._actor,
                qid=query.query_id, hop=query.hop_count,
            )

        # 1. local advertisement cache (every peer; this is how the
        #    publishing edge answers at the end of Figure 2's chain):
        #    exact and glob queries are one cache search, and a miss on
        #    a walk hop is one index probe
        if payload.is_range:
            matches = self._local_range_matches(payload, now)
        else:
            matches = self.cache.search(
                payload.adv_type, payload.attribute, payload.value, now,
                limit=payload.threshold,
            )
        if matches:
            # AdvertisementCache.get per match, read in place: a copy
            # that expires at ``now`` (or is gone) hands on the default
            entries = self.cache._entries
            expirations = []
            for adv in matches:
                entry = entries.get(adv.unique_key())
                expirations.append(
                    DEFAULT_EXPIRATION
                    if entry is None or now >= entry.expires_at
                    else entry.expiration
                )
            self.resolver.send_response(
                query,
                DiscoveryResponsePayload(matches, expirations, query.hop_count),
            )
            return

        if not self.is_rendezvous:
            # an edge with no matching advertisement stays silent
            return

        # 2. SRDI store: do we index a publisher for this tuple?
        if payload.is_range:
            records = self._range_srdi_lookup(payload, now)
        elif payload.is_wildcard:
            records = self._wildcard_srdi_lookup(payload, now)
        else:
            records = self.srdi.lookup(payload.index_tuple, now)
        if records:
            endpoint = self.resolver.endpoint
            for record in records[: payload.threshold]:
                # the SRDI index interns into the network's table, as
                # the endpoint does: an int compare, no PeerID.__eq__
                if record.key == endpoint.peer_key:
                    continue
                if record.publisher_address:
                    endpoint.router.add_direct_route(
                        record.publisher, record.publisher_address
                    )
                self.queries_forwarded_to_publisher += 1
                if obs is not None and obs.active:
                    obs.event(
                        now, "discovery", "forward.publisher", self._actor,
                        qid=query.query_id,
                    )
                self.resolver.forward_query(record.publisher, query)
            # a complex query below its threshold keeps walking: other
            # rendezvous may index further matching publishers (the
            # searcher deduplicates responses by advertisement key)
            if not payload.is_complex or len(records) >= payload.threshold:
                return

        # 3. miss: route onward according to the discovery strategy
        if self.mode == "flood":
            # JXTA 1.0: first-hop rendezvous floods the whole group;
            # propagated copies (hop_count > 0) that miss stay silent
            if query.hop_count == 0 and self.resolver.propagator is not None:
                # hopped() keeps the propagation's own local redelivery
                # from re-triggering this branch
                self.resolver.propagator(query.hopped())
            return
        if payload.walk_direction != WALK_NONE:
            self._continue_walk(query, payload, payload.walk_direction)
        elif payload.is_complex:
            # patterns and ranges hash to nothing useful: walk from here
            self._start_walk(query, payload)
        elif not payload.at_replica:
            replica_key = self._replica_key(payload.index_tuple)
            if replica_key is None or replica_key == self.view.local_key:
                self._start_walk(query, payload)
            else:
                replica = self.view.interner.id_of(replica_key)
                self.queries_forwarded_to_replica += 1
                if obs is not None and obs.active:
                    obs.event(
                        now, "discovery", "forward.replica", self._actor,
                        qid=query.query_id,
                    )

                def replica_unreachable(*_args, _r=replica):
                    # the TCP connect to the replica failed: drop it
                    # from the peerview and fall back to the walk
                    self.view.remove(_r, self.sim.now, reason="unreachable")
                    self._start_walk(query, payload)

                self.resolver.forward_query(
                    replica,
                    query,
                    on_drop=replica_unreachable,
                    payload=payload.routed(True, WALK_NONE),
                )
        else:
            # we are the computed replica and we have nothing: fall
            # back to the bidirectional peerview walk
            self._start_walk(query, payload)

    def _wildcard_srdi_lookup(self, payload: DiscoveryQueryPayload, now: float):
        """Scan the SRDI store for glob matches (complex-query
        extension; cost already charged via the store-size delay)."""
        from fnmatch import fnmatchcase

        out = []
        for index_tuple in self.srdi.tuples():
            adv_type, attribute, value = index_tuple
            if adv_type != payload.adv_type or attribute != payload.attribute:
                continue
            if fnmatchcase(value, payload.value):
                out.extend(self.srdi.lookup(index_tuple, now))
        return out

    def _range_srdi_lookup(self, payload: DiscoveryQueryPayload, now: float):
        """Scan the SRDI store for numeric range matches."""
        spec = parse_range_spec(payload.value)
        if spec is None:
            return []
        lo, hi = spec
        out = []
        for index_tuple in self.srdi.tuples():
            if tuple_in_range(
                index_tuple, payload.adv_type, payload.attribute, lo, hi
            ):
                out.extend(self.srdi.lookup(index_tuple, now))
        return out

    def _local_range_matches(self, payload: DiscoveryQueryPayload, now: float):
        """Advertisements in the local cache whose indexed attribute
        falls in a range query's numeric range."""
        if payload.threshold <= 0:
            return []
        lo, hi = parse_range_spec(payload.value)
        out = []
        for entry in self.cache.entries(now=now):
            adv = entry.adv
            if adv.ADV_TYPE != payload.adv_type:
                continue
            for _, attribute, value in adv.index_tuples():
                if attribute != payload.attribute:
                    continue
                number = numeric_value(value)
                if number is not None and lo <= number <= hi:
                    out.append(adv)
                    break
            if len(out) >= payload.threshold:
                break
        return out

    def _start_walk(self, query: ResolverQuery, payload: DiscoveryQueryPayload) -> None:
        for target, direction in walk_start_targets(self.view):
            self._send_walk_leg(query, payload, target, direction)

    def _continue_walk(
        self, query: ResolverQuery, payload: DiscoveryQueryPayload,
        direction: int,
    ) -> None:
        """Pass a walk leg on to our neighbour in ``direction``."""
        key = self.view.neighbor_key(direction)
        if key is None:
            return  # end of the peerview in this direction
        self._send_walk_leg(
            query, payload, self.view.interner.id_of(key), direction
        )

    def _send_walk_leg(
        self,
        query: ResolverQuery,
        payload: DiscoveryQueryPayload,
        target: PeerID,
        direction: int,
    ) -> None:
        """Forward one walk step; an unreachable target is dropped from
        the peerview and the leg retries with the next neighbour (the
        view shrinks on every retry, so this terminates)."""
        self.walk_steps += 1
        obs = self._net.obs
        if obs is not None and obs.active:
            obs.event(
                self.sim.now, "discovery", "walk.hop", self._actor,
                qid=query.query_id, direction=direction,
            )

        def target_unreachable(*_args, _t=target):
            self.view.remove(_t, self.sim.now, reason="unreachable")
            self._continue_walk(query, payload, direction)

        if payload.at_replica and payload.walk_direction == direction:
            # every hop after a leg's first passes the payload on as it
            # came (payloads are never mutated)
            routed = payload
        else:
            routed = payload.routed(True, direction)
        self.resolver.forward_query(
            target, query, on_drop=target_unreachable, payload=routed,
        )
