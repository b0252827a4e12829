"""The catalogue, and its agreement with BENCHMARK.json and the contract."""

import json
import re
from pathlib import Path

from bench import catalog

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_are_well_formed():
    names = [w.name for w in catalog.WORKLOADS]
    names += [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), (metric.name, metric.unit)
        assert metric.better in ("lower", "higher")
        assert metric.kind in ("host", "sim")


def test_counts_stay_within_the_contract():
    assert 2 <= len(catalog.WORKLOADS) <= 8
    assert 1 <= len(catalog.END_TO_END) <= 16
    assert 1 <= len(catalog.PER_LAYER) <= 128
    assert 1 <= catalog.RUN_SECONDS <= 60
    for workload in catalog.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_end_to_end_bounds():
    by_name = {m.name: m for m in catalog.END_TO_END}
    assert by_name["setup_s"].unit == "s"
    assert by_name["setup_s"].better == "lower"
    bounds = [m.bound for m in catalog.END_TO_END]
    assert all(0 < b <= 0.25 for b in bounds)
    assert by_name["setup_s"].bound == max(bounds)
    assert all(m.bound is None for m in catalog.PER_LAYER)


def test_every_layer_has_its_three_trace_metrics():
    names = {m.name for m in catalog.PER_LAYER}
    for layer in catalog.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.self_share",
                f"{layer}.calls"} <= names


def test_benchmark_json_is_the_catalogue():
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert declared == catalog.manifest()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    for path in declared["paths"]:
        assert (ROOT / path).is_dir()
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
