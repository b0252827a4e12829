"""No resident field without a reader.

Four classes exist once per fact — a cache entry per stored
advertisement, an SRDI record per (tuple, publisher), an envelope per
message in flight, the network's traffic counters bumped per message —
so a slot that is written and never read costs its 8 bytes (plus
whatever it pins) a few hundred thousand times, or a store per message,
for nothing.  ``PeerViewEntry.first_seen``,
``TrafficStats.per_destination`` and ``Envelope.envelope_id`` /
``sent_at`` were such fields.  A peerview member is no object at all: an
advertisement and a stamp in a C-double array, and a ``PeerViewEntry``
exists only while a caller of ``PeerView.get`` holds one.

The check is by name over ``src/repro``: every slot of those classes
must be *read* somewhere — an attribute in load context that is not
merely the container of a subscript store (``stats.n[dst] += 1`` loads
``stats.n`` only to write into it).
"""

import ast
import gc
from pathlib import Path

import pytest

from repro.advertisement.cache import CacheEntry
from repro.config import PlatformConfig
from repro.deploy import OverlayDescription, build_overlay
from repro.discovery.srdi import _SrdiRecord
from repro.network import Network
from repro.network.message import Envelope
from repro.network.stats import TrafficStats
from repro.rendezvous.peerview import PeerViewEntry
from repro.sim import MINUTES, Simulator

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def attributes_read(tree):
    """Names of the attributes ``tree`` loads for their value."""
    written_into = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, (ast.Store, ast.Del))
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in written_into
    }


@pytest.fixture(scope="module")
def read_under_src():
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        names |= attributes_read(ast.parse(path.read_text(), str(path)))
    return names


def test_the_pass_tells_a_read_from_a_write():
    written = ast.parse(
        "e.a = 1\ne.b += 1\ne.c[k] += 1\ne.d[k] = v\ndel e.f[k]\nE(g=1)\n"
    )
    assert attributes_read(written) == set()
    read = ast.parse("x = e.a\ny = e.c[k]\ne.d.update(z)\nf(e.g)\ne.h.i = 1\n")
    assert attributes_read(read) == {"a", "c", "d", "update", "g", "h"}


@pytest.mark.parametrize(
    "cls", [CacheEntry, _SrdiRecord, Envelope, TrafficStats],
    ids=lambda cls: cls.__name__,
)
def test_every_slot_of_a_per_fact_class_is_read(cls, read_under_src):
    assert cls.__slots__, f"{cls.__name__} is expected to be slotted"
    unread = [slot for slot in cls.__slots__ if slot not in read_under_src]
    assert unread == [], f"{cls.__name__}: written but never read: {unread}"


def _live(cls):
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_a_converged_overlay_holds_no_view_entry_objects():
    sim = Simulator(seed=1)
    overlay = build_overlay(
        sim, Network(sim), PlatformConfig(),
        OverlayDescription(rendezvous_count=20),
    )
    overlay.start()
    sim.run(until=10 * MINUTES)
    views = [rdv.view for rdv in overlay.rendezvous]
    assert all(view.size == 19 for view in views)
    gc.collect()
    assert _live(PeerViewEntry) == 0
    # the census sees one as soon as a caller holds a read copy
    held = views[0].get_by_key(next(iter(views[0]._entries)))
    assert _live(PeerViewEntry) == 1, held
