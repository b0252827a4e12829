"""compare's verdicts, and one small suite run end to end."""

import json

from bench import harness
from bench.catalog import END_TO_END, PER_LAYER


def test_quartiles_follow_statistics_quantiles():
    assert harness.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert harness.quartiles([1.0, 2.0, 3.0]) == (1.0, 2.0, 3.0)


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert harness.verdict(steady, steady, "lower", 0.10) == ("unchanged", 0.0)
    slower = [v * 1.2 for v in steady]
    assert harness.verdict(steady, slower, "lower", 0.10)[0] == "regressed"
    assert harness.verdict(steady, slower, "higher", 0.10)[0] == "improved"
    faster = [v * 0.8 for v in steady]
    assert harness.verdict(steady, faster, "lower", 0.10)[0] == "improved"
    assert harness.verdict(steady, faster, "higher", 0.10)[0] == "regressed"
    # a 2 % shift is inside a third of the bound: not a claimable gain
    nudged = [v * 0.98 for v in steady]
    assert harness.verdict(steady, nudged, "lower", 0.10)[0] == "unchanged"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert harness.verdict(noisy, noisy[::-1], "lower", 0.10)[0] == "unresolved"
    # ... unless every run of the change beats every run of the base
    clear = [v * 0.5 for v in noisy]
    assert harness.verdict(noisy, clear, "lower", 0.10)[0] == "improved"


def _document(wall, digest="d0"):
    return {"workloads": {"w": {
        "sim": {"x": 1.0}, "sim_digest": digest,
        "end_to_end": {
            m.name: {"samples": list(wall)} for m in END_TO_END
        },
    }}}


def test_compare_pools_files_and_flags_sim_changes(tmp_path):
    paths = []
    for i, (wall, digest) in enumerate([
        ([10.0, 10.1], "d0"), ([9.9, 10.0], "d0"), ([14.0, 14.1, 13.9], "d1"),
    ]):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(_document(wall, digest)))
        paths.append(str(path))
    base = harness.load_side(paths[:2])
    assert sorted(base["w"]["samples"]["wall_s"]) == [9.9, 10.0, 10.0, 10.1]
    rows, sim_differs = harness.compare(base, harness.load_side(paths[2:]))
    assert sim_differs == ["w"]
    by_metric = {row["metric"]: row["verdict"] for row in rows}
    assert by_metric["wall_s"] == "regressed"
    assert by_metric["ops_per_s"] == "improved"
    assert "DIFFER" in harness.render_compare(
        rows, sim_differs, base, harness.load_side(paths[2:]))


def test_a_small_suite_runs_green_and_matches_the_catalogue(tmp_path):
    out = tmp_path / "result.json"
    document, violations = harness.run_suite(
        seed=1, repeats=2, quick=True, workloads=["publish-heavy"], out=out,
        log=lambda line: None,
    )
    assert violations == []
    entry = document["workloads"]["publish-heavy"]
    assert entry["failed"] == 0
    for metric in END_TO_END:
        e = entry["end_to_end"][metric.name]
        assert (e["unit"], e["bound"], e["n"]) == (metric.unit, metric.bound, 2)
    assert set(entry["per_layer"]) == {m.name for m in PER_LAYER}
    assert document["env"]["repeats"] == 2 and document["env"]["nproc"] >= 1
    assert (tmp_path / "spans-publish-heavy.npz").exists()
    assert "publish-heavy" in harness.render_result(document)
