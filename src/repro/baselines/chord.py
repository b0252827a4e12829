"""A Chord DHT over the simulated grid network.

The paper's complexity discussion (§3.3) contrasts the LC-DHT with
"classical DHTs [that] have a complexity in O(log n) for publishing
resources" and notes they need "expensive traffic (and, often more
importantly, latency overhead) [...] to maintain consistency".  This
module provides that comparator: a faithful Chord ring — recursive
``find_successor`` routing via finger tables, periodic stabilization
and finger fixing, successor lists — running over the exact same
:class:`repro.network.Network`, so hop counts and latencies are
directly comparable with the LC-DHT benches.

Reference: Stoica et al., "Chord: A Scalable Peer-to-peer Lookup
Service for Internet Applications" (SIGCOMM 2001); the JXTA-side
comparison follows Théodoloz's DHT-based JXTA routing study [24].
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.network.message import Envelope
from repro.network.site import Node
from repro.network.transport import Network
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask

#: Identifier-space bits (2**M positions on the ring).
M = 32
RING = 2**M

#: Period of each node's stabilization and of its finger fixing, in
#: seconds.
STABILIZE_INTERVAL = 30.0

#: Successors a node keeps and hands to its predecessor.
SUCCESSOR_LIST_LEN = 4


def chord_key(name: str) -> int:
    """Hash an arbitrary name onto the ring."""
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % RING


def in_open_interval(x: int, a: int, b: int) -> bool:
    """x ∈ (a, b) on the ring (modular, exclusive both ends)."""
    if a < b:
        return a < x < b
    return x > a or x < b  # interval wraps around 0


def in_half_open_interval(x: int, a: int, b: int) -> bool:
    """x ∈ (a, b] on the ring."""
    if a < b:
        return a < x <= b
    return x > a or x <= b


# ----------------------------------------------------------------------
# wire messages
# ----------------------------------------------------------------------
@dataclass
class FindSuccessor:
    key: int
    reply_to: str
    request_id: int
    hops: int = 0

    def size_bytes(self) -> int:
        return 120


@dataclass
class FoundSuccessor:
    request_id: int
    address: str
    node_key: int
    hops: int

    def size_bytes(self) -> int:
        return 120


@dataclass
class GetPredecessor:
    reply_to: str

    def size_bytes(self) -> int:
        return 80


@dataclass
class PredecessorIs:
    address: Optional[str]
    node_key: Optional[int]
    #: sender's successor list, piggybacked for fault tolerance
    successors: List[tuple] = field(default_factory=list)

    def size_bytes(self) -> int:
        return 100 + 24 * len(self.successors)


@dataclass
class Notify:
    address: str
    node_key: int

    def size_bytes(self) -> int:
        return 80


@dataclass
class Store:
    key: int
    value: Any

    def size_bytes(self) -> int:
        return 160


@dataclass
class Fetch:
    key: int
    reply_to: str
    request_id: int

    def size_bytes(self) -> int:
        return 100


@dataclass
class FetchResult:
    request_id: int
    key: int
    value: Any
    found: bool

    def size_bytes(self) -> int:
        return 160


class ChordNode:
    """One Chord ring member bound to a transport address."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        address: str,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.address = address
        self.key = chord_key(address)

        #: finger[i] routes keys at distance >= 2**i: (address, key)
        self.fingers: List[Optional[tuple]] = [None] * M
        self.predecessor: Optional[tuple] = None
        self.successor_list: List[tuple] = []
        self.storage: Dict[int, Any] = {}

        #: request id -> callback; ids are this node's own, since every
        #: reply comes back to the node that asked
        self._pending: Dict[int, Callable] = {}
        self._last_request_id = 0
        self._next_finger = 0
        self.lookups_routed = 0

        self._stabilize_task = PeriodicTask(
            sim, STABILIZE_INTERVAL, self._stabilize,
            name=f"chord.stab.{self.key}", start_jitter=STABILIZE_INTERVAL,
        )
        self._fix_task = PeriodicTask(
            sim, STABILIZE_INTERVAL, self._fix_next_finger,
            name=f"chord.fix.{self.key}", start_jitter=STABILIZE_INTERVAL,
        )
        network.attach(address, node, self._on_envelope)

    # ------------------------------------------------------------------
    @property
    def successor(self) -> Optional[tuple]:
        return self.fingers[0]

    @successor.setter
    def successor(self, value: Optional[tuple]) -> None:
        self.fingers[0] = value

    def start(self) -> None:
        self._stabilize_task.start()
        self._fix_task.start()

    def stop(self) -> None:
        self._stabilize_task.stop()
        self._fix_task.stop()
        self.network.detach(self.address)

    def create(self) -> None:
        """Found a new ring (first node)."""
        self.predecessor = None
        self.successor = (self.address, self.key)

    def join(self, bootstrap_address: str) -> None:
        """Join the ring known to ``bootstrap_address``."""
        self.predecessor = None

        def on_found(address: str, node_key: int, hops: int) -> None:
            self.successor = (address, node_key)

        request_id = self._register(on_found)
        self._send(
            bootstrap_address,
            FindSuccessor(
                key=self.key, reply_to=self.address, request_id=request_id
            ),
        )

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def lookup(
        self, key: int, callback: Callable[[str, int, int], None]
    ) -> None:
        """Resolve the node responsible for ``key``;
        ``callback(address, node_key, hops)``."""
        request_id = self._register(callback)
        self._route_find_successor(
            FindSuccessor(key=key, reply_to=self.address, request_id=request_id)
        )

    def put(self, name: str, value: Any, done: Optional[Callable] = None) -> None:
        """Store ``value`` under ``name`` on its responsible node."""
        key = chord_key(name)

        def on_found(address: str, node_key: int, hops: int) -> None:
            self._send(address, Store(key=key, value=value))
            if done is not None:
                done(hops)

        self.lookup(key, on_found)

    def get(
        self,
        name: str,
        callback: Callable[[bool, Any, int], None],
    ) -> None:
        """Fetch the value stored under ``name``;
        ``callback(found, value, hops)``."""
        key = chord_key(name)

        def on_found(address: str, node_key: int, hops: int) -> None:
            def on_fetched(found: bool, value: Any) -> None:
                callback(found, value, hops + 1)

            request_id = self._register(on_fetched)
            self._send(
                address,
                Fetch(key=key, reply_to=self.address, request_id=request_id),
            )

        self.lookup(key, on_found)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _closest_preceding(self, key: int) -> Optional[tuple]:
        for finger in reversed(self.fingers):
            if finger is None:
                continue
            if in_open_interval(finger[1], self.key, key):
                return finger
        return None

    def _route_find_successor(self, request: FindSuccessor) -> None:
        succ = self.successor
        if succ is None:
            # degenerate: alone and not even self-successor yet
            self._answer_find(request, self.address, self.key)
            return
        if in_half_open_interval(request.key, self.key, succ[1]):
            self._answer_find(request, succ[0], succ[1])
            return
        target = self._closest_preceding(request.key)
        if target is None or target[0] == self.address:
            # nothing better known: hand to successor to make progress
            target = succ
        self.lookups_routed += 1
        self._send(
            target[0],
            FindSuccessor(
                key=request.key,
                reply_to=request.reply_to,
                request_id=request.request_id,
                hops=request.hops + 1,
            ),
        )

    def _answer_find(self, request: FindSuccessor, address: str, key: int) -> None:
        self._send(
            request.reply_to,
            FoundSuccessor(
                request_id=request.request_id,
                address=address,
                node_key=key,
                hops=request.hops,
            ),
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _stabilize(self) -> None:
        succ = self.successor
        if succ is None:
            return
        if succ[0] == self.address:
            # we are our own successor; adopt our predecessor if any
            if self.predecessor is not None and self.predecessor[0] != self.address:
                self.successor = self.predecessor
            return
        self._send(succ[0], GetPredecessor(reply_to=self.address))

    def _fix_next_finger(self) -> None:
        i = self._next_finger
        self._next_finger = (self._next_finger + 1) % M
        start = (self.key + 2**i) % RING

        def on_found(address: str, node_key: int, hops: int) -> None:
            self.fingers[i] = (address, node_key)

        request_id = self._register(on_found)
        self._route_find_successor(
            FindSuccessor(key=start, reply_to=self.address, request_id=request_id)
        )

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def _register(self, callback: Callable) -> int:
        """A fresh request id whose reply ``callback`` will handle."""
        self._last_request_id += 1
        self._pending[self._last_request_id] = callback
        return self._last_request_id

    def _send(self, dst: str, body) -> None:
        self.network.send(self.address, dst, body, size_bytes=body.size_bytes())

    def _on_envelope(self, envelope: Envelope) -> None:
        body = envelope.payload
        if isinstance(body, FindSuccessor):
            self._route_find_successor(body)
        elif isinstance(body, FoundSuccessor):
            callback = self._pending.pop(body.request_id, None)
            if callback is not None:
                callback(body.address, body.node_key, body.hops)
        elif isinstance(body, GetPredecessor):
            self._send(
                body.reply_to,
                PredecessorIs(
                    address=self.predecessor[0] if self.predecessor else None,
                    node_key=self.predecessor[1] if self.predecessor else None,
                    successors=self.successor_list[:SUCCESSOR_LIST_LEN],
                ),
            )
        elif isinstance(body, PredecessorIs):
            self._on_predecessor_reply(body)
        elif isinstance(body, Notify):
            candidate = (body.address, body.node_key)
            if self.predecessor is None or in_open_interval(
                body.node_key, self.predecessor[1], self.key
            ):
                self.predecessor = candidate
        elif isinstance(body, Store):
            self.storage[body.key] = body.value
        elif isinstance(body, Fetch):
            found = body.key in self.storage
            self._send(
                body.reply_to,
                FetchResult(
                    request_id=body.request_id,
                    key=body.key,
                    value=self.storage.get(body.key),
                    found=found,
                ),
            )
        elif isinstance(body, FetchResult):
            callback = self._pending.pop(body.request_id, None)
            if callback is not None:
                callback(body.found, body.value)
        else:
            raise TypeError(f"unexpected chord message: {type(body)!r}")

    def _on_predecessor_reply(self, body: PredecessorIs) -> None:
        succ = self.successor
        if succ is None:
            return
        if body.address is not None and in_open_interval(
            body.node_key, self.key, succ[1]
        ):
            self.successor = (body.address, body.node_key)
        # refresh successor list from the (possibly new) successor
        self.successor_list = (
            [self.successor] + list(body.successors)
        )[:SUCCESSOR_LIST_LEN]
        self._send(
            self.successor[0],
            Notify(address=self.address, node_key=self.key),
        )


class ChordRing:
    """Convenience container: build/start/converge a whole ring."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: List[Node],
        static_build: bool = True,
    ) -> None:
        """With ``static_build`` the ring starts fully converged
        (correct successors, predecessors and finger tables), which is
        how the benchmark isolates steady-state lookup cost from join
        dynamics; pass False to exercise join + stabilization."""
        if not nodes:
            raise ValueError("a ring needs at least one node")
        self.sim = sim
        self.network = network
        self.members: List[ChordNode] = []
        for node in nodes:
            self.members.append(
                ChordNode(sim, network, node, f"chord://{node.hostname}:4000")
            )
        self.members.sort(key=lambda m: m.key)
        if static_build:
            self._wire_statically()
        else:
            self.members[0].create()
            for member in self.members[1:]:
                member.join(self.members[0].address)

    def _wire_statically(self) -> None:
        n = len(self.members)
        keys = [m.key for m in self.members]
        for i, member in enumerate(self.members):
            succ = self.members[(i + 1) % n]
            pred = self.members[(i - 1) % n]
            member.successor = (succ.address, succ.key)
            member.predecessor = (pred.address, pred.key)
            member.successor_list = [
                (self.members[(i + 1 + j) % n].address,
                 self.members[(i + 1 + j) % n].key)
                for j in range(SUCCESSOR_LIST_LEN)
            ]
            for f in range(M):
                start = (member.key + 2**f) % RING
                member.fingers[f] = self._successor_of(keys, start)

    def _successor_of(self, keys: List[int], start: int):
        import bisect
        index = bisect.bisect_left(keys, start)
        member = self.members[index % len(self.members)]
        return (member.address, member.key)

    def start(self) -> None:
        for member in self.members:
            member.start()

    def stop(self) -> None:
        for member in self.members:
            member.stop()

    def is_correct(self) -> bool:
        """Every member's successor pointer matches the true ring order."""
        n = len(self.members)
        for i, member in enumerate(self.members):
            expected = self.members[(i + 1) % n]
            if member.successor is None or member.successor[0] != expected.address:
                return False
        return True
