"""Integration: workload runs are deterministic; record/replay is a
byte-exact regression oracle.

The load experiment's acceptance contract: for a given (spec, r,
seed), the run produces a byte-identical canonical trace and SLO
snapshot across repetitions and under trace replay on a fresh
deployment.
"""

import json

import pytest

from repro.campaign.tasks import TASKS
from repro.experiments import load_exp
from repro.experiments.load_exp import ci_spec, replay_load, run_load
from repro.workload.trace import load_trace_lines, replay_ops

SMALL = dict(duration=20.0, warmup=4 * 60.0, queriers=4, publishers=1,
             catalog={"popularity": "zipf", "size": 40, "skew": 1.0})


def _spec(**overrides):
    return ci_spec(**{**SMALL, **overrides})


def test_same_seed_same_run():
    a = run_load(_spec(), r=6, seed=9, record=True)
    b = run_load(_spec(), r=6, seed=9, record=True)
    assert a.digest() == b.digest()
    assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
        b.snapshot(), sort_keys=True
    )
    assert a.slo.total_requests() > 50


def test_different_seeds_differ():
    a = run_load(_spec(), r=6, seed=1, record=True)
    b = run_load(_spec(), r=6, seed=2, record=True)
    assert a.digest() != b.digest()


# run twice in one process: the second run may not lean on the first
@pytest.mark.parametrize("run", ["first", "again"])
def test_replay_reproduces_trace_and_slo(tmp_path, run):
    """The recorded trace, re-driven on a fresh deployment (through the
    JSONL file format), reproduces the original run byte-for-byte."""
    original = run_load(_spec(), r=6, seed=7, record=True)
    path = original.recorder.write(tmp_path / "trace.jsonl")

    ops = replay_ops(load_trace_lines(path))
    assert ops  # the run did issue traffic
    replayed = replay_load(_spec(), r=6, ops=ops, seed=7)

    assert replayed.digest() == original.digest()
    assert json.dumps(replayed.snapshot(), sort_keys=True) == json.dumps(
        original.snapshot(), sort_keys=True
    )


def test_replay_on_wrong_seed_diverges():
    """The oracle has teeth: replaying against a different overlay seed
    changes latencies, so the trace bytes differ."""
    original = run_load(_spec(), r=6, seed=7, record=True)
    replayed = replay_load(
        _spec(), r=6, ops=replay_ops(original.recorder.ops), seed=8
    )
    assert replayed.digest() != original.digest()


def test_rate_scale_increases_offered_load():
    base = run_load(_spec(), r=5, seed=6)
    scaled = run_load(_spec(arrivals={"kind": "poisson", "rate": 6.0}),
                      r=5, seed=6)
    assert (
        scaled.snapshot()["load.query"]["requests"]
        > base.snapshot()["load.query"]["requests"]
    )


def test_load_campaign_task_is_deterministic():
    params = {"r": 6, "rate": 2.0, "skew": 1.0, "seed": 11,
              "duration": 20.0, "warmup": 4 * 60.0,
              "queriers": 4, "publishers": 1, "catalog_size": 40}
    a = TASKS["load"](params)
    b = TASKS["load"](dict(params))
    assert a == b
    assert a["query_requests"] > 0
    assert a["trace_digest"]
    assert json.dumps(a)  # JSON-serializable, as the run store requires


def test_experiment_run_returns_flat_rows(capsys):
    rows = load_exp.run(**load_exp.SIZES["ci"], seed=1)
    out = capsys.readouterr().out
    assert "load.query" in out
    assert any(r.label == "load.query" for r in rows)
    query = next(r for r in rows if r.label == "load.query")
    assert query.requests > 100
    assert query.p99_ms >= query.p50_ms > 0
    assert 0.0 <= query.timeout_rate <= 1.0
    # flat dataclass rows with a label → the --seeds aggregator works
    from repro.campaign.aggregate import aggregate_records
    from repro.campaign.tasks import _row_metrics

    records = [{"key": "k", "params": {"name": "load", "seed": 1},
                "result": _row_metrics(rows)}]
    agg_rows, _ = aggregate_records(records, campaign="load")
    assert any(row.metric == "load.query.p99_ms" for row in agg_rows)


def test_full_spec_meets_acceptance_floor():
    """The --full sizing covers the ≥100k-request acceptance floor at
    r=150 (sizing arithmetic only; the run itself is `make load-full`)."""
    spec = load_exp.full_spec()
    assert load_exp.FULL_R == 150
    assert spec.expected_requests() >= 100_000
