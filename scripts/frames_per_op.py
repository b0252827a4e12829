#!/usr/bin/env python3
"""Python frames per operation, by layer, on three regimes at CI size.

A host-only optimisation of a protocol path removes Python frames: the
messages and events are pinned by the digests, so what one operation
costs the host is the frames it climbs between the registration points
``bench/tracing.py`` observes, plus what happens inside them.  This
counts those frames with ``sys.setprofile`` — every ``call`` event,
which is one per Python function entry and one per generator resumption
(C functions report ``c_call`` and are not counted) — and attributes
each to the ``repro`` package that defines the code (``repro.discovery
.service`` → ``discovery``; anything outside ``repro`` is ``other``).

Regimes (build and warm-up run unprofiled; only the window is counted):

* ``flat`` — one completed LC-DHT lookup on
  ``repro.workload.regimes.FLAT`` (``discovery-flat``'s shape, the
  regime ``benchmarks/test_bench_flat.py`` times), where every query is
  Figure 2's four messages; counted over 25 simulated seconds (the
  end-to-end benchmark's five units) of 40 queriers at 5 queries/s each;
* ``walk`` — one walk hop on ``repro.workload.regimes.WALK``
  (``benchmarks/test_bench_walk.py``'s regime), where every query walks;
  counted over 5 simulated seconds;
* ``peerview`` — one network message on ``peerview-580``'s shape at
  r = 40: default config, chain bootstrap, no edges, one simulated
  minute from minute 4.

The counts repeat exactly on one interpreter version (the runs are
deterministic), so ``tests/integration/test_frame_budget.py`` holds them
to a committed budget.  Frames per operation is every frame the window
counted divided by its operations, so it includes the background work
of the regime (peerview rounds, lease renewals, SRDI pushes).

Usage::

    PYTHONPATH=src python scripts/frames_per_op.py [--regime NAME ...] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import PlatformConfig
from repro.deploy import DeployedOverlay, OverlayDescription, build_overlay
from repro.network import Network
from repro.sim import MINUTES, Simulator
from repro.workload.regimes import FLAT, WALK, walk_steps


@dataclass
class Count:
    """Frames a window climbed, per layer, and the operations it did."""

    regime: str
    unit: str
    ops: int
    frames: Dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.frames.values())

    def per_op(self) -> Dict[str, float]:
        """Frames per operation by layer (one decimal), plus ``total``."""
        out = {
            layer: round(n / self.ops, 1)
            for layer, n in sorted(self.frames.items())
        }
        out["total"] = round(self.total / self.ops, 1)
        return out


def count_frames(run: Callable[[], None]) -> Dict[str, int]:
    """Run ``run()`` under a profile hook that counts Python frames by
    the ``repro`` package of their code's module."""
    by_module: Dict[str, int] = {}

    def profile(frame, event, _arg):
        if event == "call":
            name = frame.f_globals.get("__name__", "")
            by_module[name] = by_module.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    frames: Dict[str, int] = {}
    for module, n in by_module.items():
        parts = module.split(".")
        layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"
        frames[layer] = frames.get(layer, 0) + n
    return frames


def flat() -> Count:
    """Frames per completed lookup on the four-message path."""
    window = 25.0
    sim, overlay, engine = FLAT.build(window)
    steps = walk_steps(overlay)
    frames = count_frames(lambda: sim.run(until=FLAT.warmup + window))
    assert walk_steps(overlay) == steps, "the flat regime walked"
    # clients start at the end of the warm-up: every completion counts
    done = engine.slo._stats[("flat", "query")].ok
    return Count("flat", "completed lookup", done, frames)


def walk() -> Count:
    """Frames per walk hop."""
    window = 5.0
    sim, overlay, _ = WALK.build(window)
    steps = walk_steps(overlay)
    frames = count_frames(lambda: sim.run(until=WALK.warmup + window))
    return Count("walk", "walk hop", walk_steps(overlay) - steps, frames)


#: the peerview regime's window: one simulated minute from minute 4
PEERVIEW_WINDOW = (4 * MINUTES, 5 * MINUTES)


def peerview_regime() -> Tuple[Simulator, Network, DeployedOverlay]:
    """The peerview regime, built and run to the start of its window
    (``tests/unit/test_peerview_probe_deadline.py`` counts the kernel
    work of the same window)."""
    sim = Simulator(seed=1)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(),
        OverlayDescription(rendezvous_count=40, topology="chain"),
    )
    overlay.start()
    sim.run(until=PEERVIEW_WINDOW[0])
    return sim, network, overlay


def peerview() -> Count:
    """Frames per network message of the peerview protocol."""
    sim, network, _ = peerview_regime()
    sent = network.stats.messages_sent
    frames = count_frames(lambda: sim.run(until=PEERVIEW_WINDOW[1]))
    return Count("peerview", "message", network.stats.messages_sent - sent,
                 frames)


REGIMES: Dict[str, Callable[[], Count]] = {
    "flat": flat, "walk": walk, "peerview": peerview,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--regime", action="append", choices=sorted(REGIMES),
        help="regime to count (repeatable; default: all three)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print one JSON object: regime -> {unit, ops, per_op}",
    )
    args = parser.parse_args(argv)
    counts = [REGIMES[name]() for name in args.regime or REGIMES]
    if args.json:
        print(json.dumps({
            c.regime: {"unit": c.unit, "ops": c.ops, "per_op": c.per_op()}
            for c in counts
        }, indent=1, sort_keys=True))
        return 0
    for c in counts:
        per_op = c.per_op()
        print(f"{c.regime}: {per_op.pop('total')} frames per {c.unit} "
              f"({c.total} frames / {c.ops} ops)")
        for layer, n in sorted(per_op.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14} {n:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
