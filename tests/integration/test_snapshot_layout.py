"""Integration: a pickled-layout change cannot land without a version bump.

``SNAPSHOT_VERSION`` (``repro/snapshot/core.py``) guards stored
checkpoints against being misread by code with another object layout.
It was bumped by hand, from memory, up to version 7.  This test makes the
rule mechanical: it walks the pickle graph of one small reference
overlay with the pure-Python pickler (the way
``test_snapshot_hashseed.py`` looks for hash sets) and lists, for every
``repro.*`` class it meets, the fields its pickled state carries and the
container types found in them.  The sha256 of that listing is committed
beside the version (``SNAPSHOT_LAYOUT_FINGERPRINT``), the listing itself
in ``tests/fixtures/snapshot_layout.txt`` so that a failure can show
*what* moved.

A mismatch means a slot, a ``__dict__`` attribute or a container type
appeared, disappeared or changed: bump ``SNAPSHOT_VERSION`` and
regenerate the fingerprint::

    PYTHONPATH=src python tests/integration/test_snapshot_layout.py --write

(rewrites the fixture and prints the constant to paste).  The container
types are read off one run's contents, so a protocol change that fills a
container the reference run used to leave empty also moves the listing;
that diff shows only a longer ``[...]`` and wants the regeneration
without the bump.
"""

import difflib
import hashlib
import io
import pickle
import sys
from collections import deque
from pathlib import Path

from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.faults.engine import NetworkFaultController
from repro.network import Network
from repro.network.site import GRID5000_SITES, Node
from repro.obs.runtime import session as obs_session
from repro.sim import MINUTES, Simulator
from repro.sim.tracing import KernelTraceRecorder
from repro.snapshot import core as snapshot_core
from repro.workload.catalog import Catalog

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "snapshot_layout.txt"
_CONTAINERS = (list, tuple, dict, set, frozenset, deque)


def _ignore(advertisements, latency):
    """Module-level, so the query that holds it pickles."""


def build():
    """What a stored checkpoint holds (a campaign task's bootstrap,
    under its ``ObsSession``): 8 rendezvous + 5 edges, the
    fifth on HTTP behind its rendezvous' relay, with a metrics-and-trace
    hub, a kernel trace recorder and a fault controller, two edges
    publishing one 40-item catalog (multi-publisher SRDI buckets,
    replica copies), one WAN partition, and on the wire past minute 6 a
    peerview referral, an SRDI push and one discovery query."""
    sim = Simulator(seed=1)
    recorder = KernelTraceRecorder(sim)
    with obs_session(metrics=True, trace=True):
        network = Network(sim)
    network.fault_controller = NetworkFaultController(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=8, topology="chain", edge_count=4),
    )
    overlay.edges.append(overlay.group.create_edge(
        Node(12, GRID5000_SITES[12 % 9]),
        seeds=[overlay.rendezvous[4].address],
        name="edge-4",
        transport="http",
    ))
    overlay.start()
    sim.run(until=1 * MINUTES)
    catalog = Catalog.uniform(40)
    for edge in overlay.edges[:2]:
        for k in range(len(catalog)):
            edge.discovery.publish(catalog.adv(k))
    network.partition("rennes", "sophia")
    sim.run(until=6 * MINUTES)
    # stop right after a rendezvous answers a probe with a referral
    protocols = [r.peerview_protocol for r in overlay.rendezvous]
    referrals = sum(p.referrals_sent for p in protocols)

    def stop_after_referral(now, phase, handle):
        if sum(p.referrals_sent for p in protocols) > referrals:
            sim.stop()

    sim.add_trace_hook(stop_after_referral, phases=("done",))
    sim.run(until=12 * MINUTES)
    sim.remove_trace_hook(stop_after_referral)
    assert sum(p.referrals_sent for p in protocols) > referrals
    discovery = overlay.edges[2].discovery
    discovery.publish(catalog.adv(0))
    discovery.pusher.push_now()
    overlay.edges[3].discovery.get_remote_advertisements(
        *catalog.adv(7).index_tuples()[0], callback=_ignore
    )
    sim.run(until=sim.now + 0.0005)
    return {"kind": "network", "net": network,
            "extra": {"overlay": overlay, "recorder": recorder}}


def _note(shapes, value, depth=2):
    """Add a container's type, and the containers directly inside it
    (keys and values of a mapping) two levels deep, to ``shapes`` — a
    ``{type name: {inner type name: ...}}`` tree merged over every
    instance, so one rendezvous' empty index does not read as another
    layout than its neighbour's full one."""
    inner = shapes.setdefault(type(value).__name__, {})
    if depth == 0:
        return
    members = [*value, *value.values()] if isinstance(value, dict) else value
    for member in members:
        if isinstance(member, _CONTAINERS):
            _note(inner, member, depth - 1)


def _render(shapes):
    return ",".join(
        f"{name}[{_render(inner)}]" if inner else name
        for name, inner in sorted(shapes.items())
    )


def _named_state(state):
    """(field name, value) pairs of one reduced object's state: a
    ``__dict__``, the ``(dict, slots)`` pair of a slotted class, or —
    whatever else a ``__getstate__`` returns — the state as one field."""
    if isinstance(state, dict):
        return list(state.items())
    if (
        isinstance(state, tuple) and len(state) == 2
        and all(part is None or isinstance(part, dict) for part in state)
    ):
        return [pair for part in state for pair in (part or {}).items()]
    return [] if state is None else [("state", state)]


class _LayoutWalker(pickle._Pickler):
    """The pure-Python pickler, noting the state of every ``repro.*``
    object it reduces."""

    def __init__(self):
        super().__init__(io.BytesIO(), protocol=5)
        #: qualified class name -> {field: container shape tree}
        self.layout = {}

    def save_reduce(self, func, args, state=None, *rest, obj=None, **kw):
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            fields = self.layout.setdefault(
                f"{cls.__module__}.{cls.__qualname__}", {}
            )
            for name, value in _named_state(state):
                shapes = fields.setdefault(name, {})
                if isinstance(value, _CONTAINERS):
                    _note(shapes, value)
        super().save_reduce(func, args, state, *rest, obj=obj, **kw)


def layout_listing(graph):
    """One line per class, sorted: ``class: field field=shape,shape``."""
    walker = _LayoutWalker()
    walker.dump(graph)
    lines = []
    for cls, fields in sorted(walker.layout.items()):
        rendered = " ".join(
            f"{name}={_render(shapes)}" if shapes else name
            for name, shapes in sorted(fields.items())
        )
        lines.append(f"{cls}: {rendered}\n")
    return "".join(lines)


def _fingerprint(listing):
    return hashlib.sha256(listing.encode()).hexdigest()


def test_layout_fingerprint_matches_the_committed_one():
    listing = layout_listing(build())
    committed = FIXTURE.read_text()
    moved = "".join(difflib.unified_diff(
        committed.splitlines(True), listing.splitlines(True),
        "committed layout", "this tree's layout", n=0,
    ))
    assert _fingerprint(listing) == snapshot_core.SNAPSHOT_LAYOUT_FINGERPRINT, (
        f"the pickled layout changed (SNAPSHOT_VERSION is "
        f"{snapshot_core.SNAPSHOT_VERSION}): bump `SNAPSHOT_VERSION` and "
        "regenerate the fingerprint — PYTHONPATH=src python "
        f"tests/integration/test_snapshot_layout.py --write\n{moved}"
    )
    # the fixture is what the next failure diffs against: keep it in step
    assert _fingerprint(committed) == snapshot_core.SNAPSHOT_LAYOUT_FINGERPRINT


def test_the_walk_sees_the_layouts_past_bumps_were_about():
    """Every class a version row of docs/CHECKPOINTS.md names is in the
    listing, with the fields those rows changed."""
    listing = dict(
        line.rstrip("\n").split(": ", 1) for line in FIXTURE.open()
    )
    for cls, needles in {
        "repro.ids.intern.IdInternTable": ["_tokens="],
        "repro.obs.core.Observability": ["_send_keys"],
        "repro.advertisement.cache.AdvertisementCache": ["_by_attr=dict", "journal=list"],
        "repro.network.message.Envelope": ["dst payload size_bytes src"],
        "repro.rendezvous.peerview.PeerView": ["_stamps"],
        "repro.discovery.srdi.SrdiIndex": ["_by_publisher=dict[list", "_last"],
        "repro.discovery.srdi.SrdiPusher": ["_pushed=dict"],
        "repro.discovery.srdi._SrdiRecord": ["expires_at key publisher"],
        "repro.network.transport.Network": ["_partitions=dict[tuple]"],
        "repro.sim.kernel.Simulator": ["_seq", "_queue=list"],
        "repro.sim.kernel.EventHandle": ["_label _state"],
    }.items():
        assert cls in listing, cls
        for needle in needles:
            assert needle in listing[cls], (cls, needle, listing[cls])


def test_a_new_attribute_and_a_changed_container_move_the_listing():
    payload = build()
    index = max(
        (r.discovery.srdi for r in payload["extra"]["overlay"].rendezvous),
        key=len,
    )
    line = "repro.discovery.srdi.SrdiIndex: "
    before = next(l for l in layout_listing(payload).splitlines() if l.startswith(line))
    index._by_publisher = {k: set(v) for k, v in index._by_publisher.items()}
    index.hits = 0
    after = next(l for l in layout_listing(payload).splitlines() if l.startswith(line))
    assert after == before.replace(
        "_by_publisher=dict[list[tuple]]", "_by_publisher=dict[list[tuple],set[tuple]]"
    ).replace(" inserts ", " hits inserts ")


if __name__ == "__main__":
    text = layout_listing(build())
    if "--write" in sys.argv[1:]:
        FIXTURE.write_text(text)
        print(f'SNAPSHOT_LAYOUT_FINGERPRINT = (\n    "{_fingerprint(text)}"\n)')
    else:
        sys.stdout.write(text)
