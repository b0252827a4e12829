"""Direct unit coverage for CLI surfaces introduced alongside the
observability, benchmarking and checkpointing layers:

* ``jxta-repro trace <target>`` (:func:`repro.obs.cli.trace_main`);
* ``scripts/bench_trajectory.py memory`` (telemetry pretty-printer);
* ``jxta-repro <exp> --warm-start / --checkpoint-dir`` parsing and
  error paths.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main
from repro.obs.cli import trace_main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


# ---------------------------------------------------------------------------
# jxta-repro trace
# ---------------------------------------------------------------------------

def test_trace_campaign_target_writes_artefacts(tmp_path, capsys):
    rc = trace_main(
        ["fig3-smoke", "--out", str(tmp_path), "--jsonl"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    trace_path = tmp_path / "trace-fig3-smoke.json"
    jsonl_path = tmp_path / "trace-fig3-smoke.jsonl"
    metrics_path = tmp_path / "metrics-fig3-smoke.json"
    for path in (trace_path, jsonl_path, metrics_path):
        assert path.exists(), path
        assert f"# wrote {path}" in out
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"], "chrome trace has no events"
    assert jsonl_path.read_text().strip(), "JSONL timeline empty"
    metrics = json.loads(metrics_path.read_text())
    assert metrics.get("counters"), "metrics snapshot has no counters"


def test_trace_categories_filter_limits_events(tmp_path):
    trace_main(
        ["fig3-smoke", "--out", str(tmp_path), "--categories",
         "peerview"]
    )
    trace = json.loads(
        (tmp_path / "trace-fig3-smoke.json").read_text()
    )
    cats = {e.get("cat") for e in trace["traceEvents"] if e.get("cat")}
    assert cats <= {"peerview"}, cats


def test_trace_rejects_unknown_target():
    with pytest.raises(SystemExit) as exc:
        trace_main(["no-such-target"])
    assert exc.value.code == 2


def test_main_cli_delegates_trace(tmp_path, capsys):
    rc = cli_main(["trace", "fig3-smoke", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trace-fig3-smoke.json").exists()
    assert "perfetto" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# scripts/bench_trajectory.py memory
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_trajectory():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", REPO_ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("bench_trajectory")
    sys.modules["bench_trajectory"] = module
    spec.loader.exec_module(module)
    yield module
    if saved is None:
        sys.modules.pop("bench_trajectory", None)
    else:
        sys.modules["bench_trajectory"] = saved


def _fake_report(tmp_path, benchmarks):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return str(path)


def test_memory_prints_telemetry(bench_trajectory, tmp_path, capsys):
    report = _fake_report(
        tmp_path,
        [
            {
                "name": "test_bench_scaling",
                "stats": {"min": 0.5},
                "extra_info": {
                    "peak_rss_kb": 150 * 1024,
                    "tracemalloc_peak_kb": 2048,
                    "tracemalloc_alloc_blocks": 777,
                    "alloc_per_event": 1.25,
                },
            }
        ],
    )
    rc = bench_trajectory.main(["memory", report])
    assert rc == 0
    out = capsys.readouterr().out
    assert "test_bench_scaling: peak RSS 150 MB" in out
    assert "1.25 allocated blocks/event" in out
    assert "tracemalloc peak 2.0 MB" in out
    assert "777 live allocation blocks" in out


def test_memory_empty_report_is_an_error(
    bench_trajectory, tmp_path, capsys
):
    report = _fake_report(tmp_path, [])
    rc = bench_trajectory.main(["memory", report])
    assert rc == 1
    assert "no benchmarks found" in capsys.readouterr().err


def test_check_enforces_rss_floor(bench_trajectory, tmp_path, capsys):
    report = _fake_report(
        tmp_path,
        [
            {
                "name": "b",
                "stats": {"min": 0.5},
                "extra_info": {"peak_rss_kb": 2000},
            }
        ],
    )
    rc = bench_trajectory.main(
        ["check", report, "--bench", "b", "--max-rss-kb", "1000"]
    )
    assert rc == 1
    assert "more memory than the floor" in capsys.readouterr().err


def test_check_enforces_bytes_per_publish_floor(
    bench_trajectory, tmp_path, capsys
):
    report = _fake_report(
        tmp_path,
        [
            {
                "name": "b",
                "stats": {"min": 0.5},
                "extra_info": {"peak_rss_kb": 2000, "bytes_per_publish": 818.2},
            }
        ],
    )
    check = ["check", report, "--bench", "b", "--max-bytes-per-publish"]
    assert bench_trajectory.main(check + ["900"]) == 0
    assert "retained per publish 818.2 B" in capsys.readouterr().out
    assert bench_trajectory.main(check + ["800"]) == 1
    assert "more memory than the floor" in capsys.readouterr().err


def test_check_prints_a_microsecond_time_floor(bench_trajectory, tmp_path, capsys):
    # test_srdi_idle_push_tick: 100 idle ticks take microseconds
    report = _fake_report(tmp_path, [{"name": "b", "stats": {"min": 6.9e-6}}])
    check = ["check", report, "--bench", "b", "--max-seconds"]
    assert bench_trajectory.main(check + ["7.9e-6"]) == 0
    assert "min 0.0069 ms (floor 0.0079 ms)" in capsys.readouterr().out
    assert bench_trajectory.main(check + ["5e-6"]) == 1
    assert "slower than the floor" in capsys.readouterr().err


def test_check_enforces_fuzz_floors(bench_trajectory, tmp_path, capsys):
    report = _fake_report(
        tmp_path,
        [
            {
                "name": "b",
                "stats": {"min": 0.9},
                "extra_info": {
                    "us_per_fuzz_event": 14.9,
                    "executions_per_genome": 4.25,
                },
            }
        ],
    )
    check = ["check", report, "--bench", "b"]
    ok = ["--max-us-per-fuzz-event", "17.1",
          "--max-executions-per-genome", "4.9"]
    assert bench_trajectory.main(check + ok) == 0
    out = capsys.readouterr().out
    assert "per fuzzed event 14.9 us (floor 17.1 us)" in out
    assert "executions per genome 4.25 x (floor 4.9 x)" in out
    assert bench_trajectory.main(
        check + ["--max-us-per-fuzz-event", "14"]
    ) == 1
    assert "slower than the floor" in capsys.readouterr().err
    assert bench_trajectory.main(
        check + ["--max-executions-per-genome", "4"]
    ) == 1
    assert "more executions per genome" in capsys.readouterr().err
    assert bench_trajectory.main(check) == 1
    assert "nothing to check" in capsys.readouterr().err


def test_record_keeps_the_best_of_several_reports(
    bench_trajectory, tmp_path, monkeypatch
):
    trajectory = tmp_path / "trajectory.json"
    monkeypatch.setattr(bench_trajectory, "TRAJECTORY", trajectory)

    def bench(name, min_s, us):
        stats = {"min": min_s, "median": min_s + 0.1, "mean": min_s + 0.2,
                 "stddev": 0.01, "rounds": 10}
        return {"name": name, "stats": stats,
                "extra_info": {"us_per_fuzz_event": us}}

    reports = []
    for i, benches in enumerate((
        [bench("fuzz", 0.9, 15.0), bench("walk", 0.3, 1.0)],
        [bench("fuzz", 0.8, 17.0)],
        [bench("fuzz", 1.0, 16.0)],
    )):
        path = tmp_path / f"report-{i}.json"
        path.write_text(json.dumps({"benchmarks": benches}))
        reports.append(str(path))
    assert bench_trajectory.main(["record", *reports, "--label", "x"]) == 0
    entries = json.loads(trajectory.read_text())["benchmarks"]
    (fuzz,), (walk,) = entries["fuzz"], entries["walk"]
    # each value is the best among the reports that ran the benchmark
    assert (fuzz["min_s"], fuzz["median_s"]) == (0.8, 0.9)
    assert fuzz["us_per_fuzz_event"] == 15.0
    assert (walk["min_s"], walk["us_per_fuzz_event"]) == (0.3, 1.0)


# ---------------------------------------------------------------------------
# --warm-start / --checkpoint-dir
# ---------------------------------------------------------------------------

def test_warm_start_miss_then_hit(tmp_path, capsys):
    cache = tmp_path / "cache"
    rc = cli_main(
        ["load", "--warm-start", "--checkpoint-dir", str(cache)]
    )
    assert rc == 0
    first = capsys.readouterr().out
    assert "# checkpoints: 0 hit(s), 1 miss(es)" in first

    rc = cli_main(
        ["load", "--warm-start", "--checkpoint-dir", str(cache)]
    )
    assert rc == 0
    second = capsys.readouterr().out
    assert "# checkpoints: 1 hit(s), 0 miss(es)" in second


def test_checkpoint_dir_implies_warm_start(tmp_path, capsys):
    rc = cli_main(["load", "--checkpoint-dir", str(tmp_path / "c")])
    assert rc == 0
    assert "# checkpoints:" in capsys.readouterr().out


def test_no_warm_start_no_checkpoint_summary(capsys):
    rc = cli_main(["load"])
    assert rc == 0
    assert "# checkpoints:" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags", (["--warm-start"], ["--checkpoint-dir", "unused"])
)
def test_warm_start_rejected_where_unsupported(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["table1", *flags])
    assert exc.value.code == 2
    assert "supported by: churn, fig4-right, load" in capsys.readouterr().err


def test_seeds_must_be_positive():
    with pytest.raises(SystemExit) as exc:
        cli_main(["load", "--seeds", "0"])
    assert exc.value.code == 2


def test_check_reads_the_best_of_several_reports(
    bench_trajectory, tmp_path, capsys
):
    reports = []
    for i, us in enumerate((18.2, 15.1, 20.4)):
        path = tmp_path / f"fuzz-{i}.json"
        path.write_text(json.dumps({"benchmarks": [{
            "name": "b", "stats": {"min": 0.9},
            "extra_info": {"us_per_fuzz_event": us,
                           "executions_per_genome": 2.25},
        }]}))
        reports.append(str(path))
    check = ["check", *reports, "--bench", "b",
             "--max-executions-per-genome", "2.59",
             "--max-us-per-fuzz-event"]
    assert bench_trajectory.main(check + ["16.4"]) == 0
    assert "per fuzzed event 15.1 us (best of 3)" in capsys.readouterr().out
    assert bench_trajectory.main(check + ["15"]) == 1
    assert "slower than the floor" in capsys.readouterr().err
    # a report without the benchmark (a failed invocation) fails
    (tmp_path / "fuzz-0.json").write_text(json.dumps({"benchmarks": []}))
    assert bench_trajectory.main(check + ["16.4"]) == 1
    assert "not in" in capsys.readouterr().err
