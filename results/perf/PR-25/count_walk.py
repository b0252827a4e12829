"""Count the cache entries SRDI pushers visit in one benchmark workload.

Usage (from a tree's root): PYTHONPATH=src python count_walk.py WORKLOAD SEED
Prints ticks, ticks that found something to read, entries visited and raw
seconds spent in the pusher, split at the start of the measured window.
"""
import json
import sys
import time

sys.path.insert(0, ".")
from bench import workloads
from repro.discovery.srdi import SrdiPusher

name, seed = sys.argv[1], int(sys.argv[2])
warmup = workloads.OVERLAY_SIZES[name].warmup
journal = hasattr(SrdiPusher, "_push")
stats = {p: dict(ticks=0, reading=0, walked=0, seconds=0.0, rdv_changes=0)
         for p in ("warmup", "window")}


def phase(sim):
    return stats["warmup" if sim.now < warmup else "window"]


def reverse_steps(cache):
    entries = cache._entries
    pending = {k: None for k in cache.journal if k in entries}
    steps = found = 0
    if pending:
        for key in reversed(entries):
            steps += 1
            if key in pending:
                found += 1
                if found == len(pending):
                    break
    return steps


orig_tick = SrdiPusher._tick
orig_rc = SrdiPusher.rendezvous_changed
in_rc = [False]


def tick(self):
    st = phase(self.sim)
    if not in_rc[0]:
        st["ticks"] += 1
        if journal:
            if self.cache.journal:
                st["reading"] += 1
                st["walked"] += reverse_steps(self.cache)
        else:
            st["reading"] += 1
            st["walked"] += len(self.cache._entries)
    t0 = time.perf_counter()
    orig_tick(self)
    st["seconds"] += time.perf_counter() - t0


def rendezvous_changed(self):
    st = phase(self.sim)
    st["rdv_changes"] += 1
    st["walked"] += len(self.cache._entries)
    in_rc[0] = True
    t0 = time.perf_counter()
    try:
        orig_rc(self)
    finally:
        in_rc[0] = False
    st["seconds"] += time.perf_counter() - t0


SrdiPusher._tick = tick
SrdiPusher.rendezvous_changed = rendezvous_changed
out = workloads.run_workload(name, seed, workloads.RUN_SECONDS)
print(json.dumps({"workload": name, "seed": seed, "journal": journal,
                  "digest": out.digest[:12], **stats}))
