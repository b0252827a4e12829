"""One run of one workload (``--quick`` sizes), in process and as the
command BENCHMARK.json names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench import catalog
from bench.run import FORBIDDEN_ENV, run_once

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def flat_plain():
    return run_once("discovery-flat", 1, 10, trace=False, quick=True)


@pytest.fixture(scope="module")
def flat_traced():
    return run_once("discovery-flat", 1, 10, trace=True, quick=True)


def test_untraced_run_reports_exactly_the_end_to_end_metrics(declared, flat_plain):
    result = flat_plain["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(value > 0 for value in result["metrics"].values())


def test_traced_run_reports_exactly_the_per_layer_metrics(declared, flat_traced):
    result = flat_traced["result"]
    assert result["correct"], flat_traced["detail"]["violations"]
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    metrics = result["metrics"]
    shares = sum(metrics[f"{layer}.self_share"] for layer in catalog.LAYERS)
    assert shares + metrics["trace.unattributed_share"] == pytest.approx(100, abs=1)
    # the workload loads the layers it was chosen for, and not the others
    assert metrics["discovery.self_share"] > metrics["rendezvous.self_share"]
    assert metrics["fuzz.calls"] == 0 and metrics["snapshot.calls"] == 0
    assert metrics["network.calls"] >= metrics["network.sends"] / 2 > 0


def test_span_patches_leave_the_simulation_alone(flat_plain, flat_traced):
    assert flat_traced["detail"]["spans"] > 0
    assert flat_plain["detail"]["sim_digest"] == flat_traced["detail"]["sim_digest"]
    assert flat_plain["detail"]["sim"] == flat_traced["detail"]["sim"]


@pytest.mark.parametrize("workload", catalog.workload_names())
def test_two_quick_runs_give_identical_sim_metrics(workload):
    first = run_once(workload, 3, 10, trace=False, quick=True)
    second = run_once(workload, 3, 10, trace=False, quick=True)
    assert first["result"]["correct"], first["detail"]["violations"]
    assert first["result"]["failed"] == 0
    assert first["detail"]["sim_digest"] == second["detail"]["sim_digest"]
    assert first["detail"]["sim"] == second["detail"]["sim"]
    assert first["result"]["attempted"] == second["result"]["attempted"]


def test_the_seed_generates_the_inputs(flat_plain):
    other = run_once("discovery-flat", 2, 10, trace=False, quick=True)
    assert other["detail"]["sim_digest"] != flat_plain["detail"]["sim_digest"]


def test_fuzz_batch_exercises_snapshot_and_faults():
    out = run_once("fuzz-batch", 1, 10, trace=True, quick=True)
    metrics = out["result"]["metrics"]
    assert out["result"]["correct"], out["detail"]["violations"]
    assert metrics["snapshot.restores"] > 0
    assert metrics["fuzz.oracle_checks"] > 0
    assert metrics["sim.events_fired"] > 0


def _command(*extra, env=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "peerview-580", "--seed", "1", "--seconds", "10", "--quick", *extra],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_command_prints_the_contract_object_last(declared):
    done = _command("--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


@pytest.mark.parametrize("variable", FORBIDDEN_ENV)
def test_command_refuses_kernel_and_pool_toggles(variable):
    done = _command("--trace", "0", env={**os.environ, variable: "1"})
    assert done.returncode != 0
    assert variable in done.stderr
    assert done.stdout == ""
