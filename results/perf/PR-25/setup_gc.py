"""Time publish-heavy's set-up raw, with every collector pass inside it.

Usage (from a tree's root): PYTHONPATH=src python setup_gc.py SEED BUILDS
"""
import gc
import json
import sys
import time

sys.path.insert(0, ".")
from bench import workloads

seed, builds = int(sys.argv[1]), int(sys.argv[2])
sizes = workloads.OVERLAY_SIZES["publish-heavy"]
passes = []
t_start = [0.0]


def on_gc(phase, info):
    if phase == "start":
        t_start[0] = time.perf_counter()
    else:
        passes.append((info["generation"], round(1e3 * (time.perf_counter() - t_start[0]), 1)))


out = []
for _ in range(builds):
    gc.collect()
    passes.clear()
    gc.callbacks.append(on_gc)
    t0 = time.perf_counter()
    sc = workloads.build_scenario(sizes, seed, workloads.RUN_SECONDS)
    raw = time.perf_counter() - t0
    gc.callbacks.remove(on_gc)
    gc_ms = sum(ms for _, ms in passes)
    out.append({"raw_s": round(raw, 4), "gc_ms": round(gc_ms, 1),
                "gen2": [ms for g, ms in passes if g == 2]})
    sc = None
print(json.dumps(out))
