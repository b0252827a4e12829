"""The committed benchmark evidence backs what its summaries quote.

A performance claim commits, under ``results/perf/PR-<n>/``, a
``SUMMARY.md`` whose table quotes medians, ranges and pair wins, and one
compact ``seed<S>-<workloads>.jsonl.gz`` per (workloads, seed) group —
the ``pairs.jsonl.gz`` ``scripts/bench_pairs.py`` wrote: ``env`` and the
column names on the first line, then one array per (run, workload),
gzipped.  This test re-derives every gated-metric cell and every
``sim_digest`` of each table from those files, so a summary cannot
drift from its runs, and the runs stay small enough to commit.

A row names its group by seed and workload.  Where two groups at one
seed ran a workload, the row whose seed reads ``1 (+5)`` — more pairs,
run on their own — is the group of that workload alone.
"""

import gzip
import json
import operator
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PERF = ROOT / "results" / "perf"
GATED = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb")
#: metric -> how a pair's change beats its base, as BENCHMARK.json's
#: ``end_to_end`` list declares the metric's ``better`` direction
BEATS = {
    m["name"]: operator.lt if m["better"] == "lower" else operator.gt
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
#: every committed group of runs
GROUPS = sorted(PERF.glob("PR-*/seed*.jsonl.gz"))
#: the PR directories whose runs were committed
SUMMARIES = sorted(
    {path.parent for path in GROUPS}, key=lambda p: int(p.name.split("-")[1])
)

_NUM = r"[\d.]+"
_CELL = re.compile(
    rf"(?P<b>{_NUM})(?: \[(?P<blo>{_NUM})–(?P<bhi>{_NUM})\])? → "
    rf"(?P<n>{_NUM})(?: \[(?P<nlo>{_NUM})–(?P<nhi>{_NUM})\])?"
    rf"(?: \((?P<wins>\d+)/(?P<pairs>\d+)\))?"
    rf"(?:, (?P<pct>[−+]?{_NUM}) %)?"
)


def group_name(path):
    """``seed<S>-<workloads>`` of a group file."""
    return path.name.removesuffix(".jsonl.gz")


def load_group(path):
    text = gzip.decompress(path.read_bytes()).decode()
    header, *rows = map(json.loads, text.splitlines())
    return header["env"], [dict(zip(header["columns"], row)) for row in rows]


def groups_of(pr_dir):
    """{(seed, (workload, ...)): runs} for every group of one PR."""
    out = {}
    for path in sorted(pr_dir.glob("seed*.jsonl.gz")):
        env, runs = load_group(path)
        seed, workloads = re.fullmatch(r"seed(\d+)-(.+)", group_name(path)).groups()
        assert env["seed"] == int(seed), path
        out[(int(seed), tuple(workloads.split("+")))] = runs
    return out


def table_rows(summary):
    """The summary table as dicts keyed by its (unquoted) headers."""
    rows, header = [], None
    for line in summary.read_text().splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if header is None:
            header = [c.replace("`", "") for c in cells]
        elif not set(line) <= set("|- "):
            rows.append(dict(zip(header, cells)))
    return rows


def fmt_like(value, quoted):
    decimals = len(quoted.split(".")[1]) if "." in quoted else 0
    return f"{value:.{decimals}f}"


def pick_runs(groups, row):
    workload = row["workload"].strip("*`")
    seed = int(re.search(r"\d+", row["seed"]).group())
    found = [key for key in groups if key[0] == seed and workload in key[1]]
    if len(found) > 1:
        alone = "(+" in row["seed"]
        found = [key for key in found if (key[1] == (workload,)) == alone]
    assert len(found) == 1, (row, sorted(groups))
    return workload, [r for r in groups[found[0]] if r["workload"] == workload]


def check_cell(cell, runs, metric, pairs):
    m = _CELL.search(cell)
    assert m, cell
    by_side = {
        side: {r["pair"]: r[metric] for r in runs if r["side"] == side}
        for side in ("base", "new")
    }
    assert sorted(by_side["base"]) == sorted(by_side["new"]) == list(
        range(1, pairs + 1)
    )
    for side, med, lo, hi in (("base", "b", "blo", "bhi"), ("new", "n", "nlo", "nhi")):
        values = list(by_side[side].values())
        assert fmt_like(statistics.median(values), m[med]) == m[med], (cell, side)
        if m[lo]:
            assert fmt_like(min(values), m[lo]) == m[lo], (cell, side)
            assert fmt_like(max(values), m[hi]) == m[hi], (cell, side)
    if m["wins"]:
        beats = BEATS[metric]
        wins = sum(beats(by_side["new"][p], by_side["base"][p]) for p in by_side["base"])
        assert (int(m["wins"]), int(m["pairs"])) == (wins, pairs), cell
    if m["pct"]:
        change = 100 * (
            statistics.median(by_side["new"].values())
            / statistics.median(by_side["base"].values()) - 1
        )
        assert fmt_like(change, m["pct"]).replace("-", "−") == m["pct"].lstrip("+"), cell


def test_a_pair_win_follows_the_metrics_better_direction():
    # two pairs in which the change is higher: wins for ops_per_s only
    runs = [
        {"side": side, "pair": pair, "ops_per_s": value, "wall_s": value}
        for pair in (1, 2)
        for side, value in (("base", 10.0 * pair), ("new", 10.0 * pair + 1))
    ]
    check_cell("15.0 → 16.0 (2/2)", runs, "ops_per_s", 2)
    check_cell("15.0 → 16.0 (0/2)", runs, "wall_s", 2)


@pytest.mark.parametrize("pr_dir", SUMMARIES, ids=lambda p: p.name)
def test_summary_table_rederives_from_the_compact_runs(pr_dir):
    groups = groups_of(pr_dir)
    rows = table_rows(pr_dir / "SUMMARY.md")
    assert rows, "no table"
    checked = 0
    for row in rows:
        workload, runs = pick_runs(groups, row)
        pairs = int(row["pairs"])
        digests = {r["sim_digest"][:12] for r in runs}
        (digest_header,) = [h for h in row if h.startswith("sim_digest")]
        assert digests == {row[digest_header].strip("`")}, (workload, digests)
        for metric in GATED:
            if metric in row:
                check_cell(row[metric], runs, metric, pairs)
                checked += 1
    assert checked >= len(rows)


@pytest.mark.parametrize("pr_dir", SUMMARIES, ids=lambda p: p.name)
def test_claimed_rows_are_marked_and_claimed_cells_carry_their_wins(pr_dir):
    """A bold row is a claimed workload; its bold cell — the claimed
    metric — quotes pair wins and the change in the median."""
    for row in table_rows(pr_dir / "SUMMARY.md"):
        if not row["workload"].startswith("**"):
            continue
        bold = [m for m in GATED if row.get(m, "").startswith("**")]
        assert len(bold) == 1, row
        m = _CELL.search(row[bold[0]])
        assert m["wins"] and m["pct"], row


@pytest.mark.parametrize(
    "path", GROUPS, ids=lambda p: f"{p.parent.name}/{group_name(p)}",
)
def test_compact_runs_are_complete_and_alternate(path):
    env, runs = load_group(path)
    assert set(env["commit"]) == {"base", "new"}
    orders = sorted({(r["order"], r["side"], r["pair"]) for r in runs})
    assert [o for o, _, _ in orders] == list(range(1, len(orders) + 1))
    for order, side, pair in orders:
        # odd pairs run the base first, even pairs the change
        first = "base" if pair % 2 else "new"
        assert order == 2 * pair - (side == first), (order, side, pair)
    for run in runs:
        assert set(GATED) | {"sim_digest", "failed_share", "sim_sha"} <= set(run)
        assert run["failed_share"] == 0.0


def test_results_stay_small():
    size = sum(p.stat().st_size for p in PERF.rglob("*") if p.is_file())
    assert size <= 400_000, f"results/perf/ holds {size} bytes"
    full = [
        p for p in PERF.rglob("*.json*")
        if p.name.endswith((".json", ".json.gz"))
        and "workloads" in json.loads(
            gzip.decompress(p.read_bytes()) if p.suffix == ".gz" else p.read_bytes()
        )
    ]
    assert not full, "full run JSONs belong in .benchmarks/"
