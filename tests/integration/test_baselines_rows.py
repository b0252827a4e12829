"""Integration: the baselines comparison at CI size, pinned row by row.

The flooding baseline is the one caller of the rendezvous propagation
protocol (``repro.rendezvous.propagation``), whose forwarding carries
interned peer keys rather than sorting ``PeerID`` objects.  A host-only
change there must leave every row of the comparison — publish messages,
lookup latency and hops, success, total messages — as it was: the hash
below was taken before the interned-key forwarding and must still be
reproduced.
"""

import dataclasses
import hashlib
import json

from repro.experiments import baselines_exp

ROWS_SHA256 = (
    "b11dc83d8cbfd026e8a8d30926c7f0c23461f8b1041f73af9d7b9b4a8f01b67f"
)


def test_baselines_rows_are_pinned():
    points = baselines_exp.run(**baselines_exp.SIZES["ci"], seed=1)
    assert {p.strategy for p in points} == {"lcdht", "flood", "central", "chord"}
    rows = json.dumps([dataclasses.asdict(p) for p in points], sort_keys=True)
    assert hashlib.sha256(rows.encode()).hexdigest() == ROWS_SHA256
