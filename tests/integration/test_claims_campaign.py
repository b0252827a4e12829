"""``jxta-repro sweep all`` evaluates every claim row per seed: the
``experiment`` task reports each row's value, and the campaign's
finalizer writes them to ``claims.csv`` with how many seeds pass.
Each seed's rendered table and CSV land in a directory of their own."""

import csv
import math
from pathlib import Path

from repro.analysis import claims
from repro.analysis.claims import CLAIMS, Claim, evaluate
from repro.campaign.aggregate import aggregate_records
from repro.campaign.builtin import all_experiments_campaign
from repro.campaign.runner import run_in_memory
from repro.campaign.tasks import FINALIZERS
from repro.experiments.cli import run_experiment

NAMES = ["table1", "transport"]


def _table(out_dir):
    with (out_dir / "claims.csv").open(newline="") as handle:
        return list(csv.reader(handle))


def test_claim_table_holds_each_rows_value_per_seed(tmp_path):
    records = run_in_memory(all_experiments_campaign(seeds=2, names=NAMES))
    lines = FINALIZERS["all"](records, tmp_path)
    header, *rows = _table(tmp_path)
    assert header == ["claim", "band", "size", "seed1", "seed2", "passed"]
    on_names = [claim for claim in CLAIMS if claim.experiment in NAMES]
    assert [row[0] for row in rows] == [claim.id for claim in on_names]
    assert len(rows) == 11
    seed1 = {name: run_experiment(name, "ci", 1) for name in NAMES}
    for claim, row in zip(on_names, rows):
        assert row[1:3] == [claim.band, "ci"]
        assert float(row[3]) == evaluate(claim, seed1[claim.experiment])[0]
        assert row[5] == "2/2", row
    assert [line.split()[0] for line in lines[:-1]] == [c.id for c in on_names]
    assert all(line.endswith("2/2 passed") for line in lines[:-1])


def test_a_measure_that_raises_reads_nan_in_the_table(tmp_path, monkeypatch):
    broken = Claim("table1.broken", "", "table1", lambda t: 1 / 0, ">= 0")
    monkeypatch.setattr(claims, "CLAIMS", (broken,))
    records = run_in_memory(all_experiments_campaign(names=["table1"]))
    assert math.isnan(records[0]["result"]["claim.table1.broken"])
    FINALIZERS["all"](records, tmp_path)
    assert _table(tmp_path)[1] == ["table1.broken", ">= 0", "ci", "nan", "0/1"]


def test_each_seed_keeps_its_artefacts(tmp_path):
    """The first seed writes ``<out>/<name>.*`` and every later seed
    ``<out>/seed<k>/<name>.*``, so no seed overwrites another's files;
    the seeds still aggregate as one group."""
    records = run_in_memory(
        all_experiments_campaign(seeds=2, names=["table1"], out=str(tmp_path))
    )
    first, second = (record["result"]["files"] for record in records)
    assert first and {Path(p).parent for p in first} == {tmp_path}
    assert {Path(p).name for p in second} == {Path(p).name for p in first}
    assert {Path(p).parent for p in second} == {tmp_path / "seed2"}
    for record in records:
        table = Path(record["result"]["files"][0]).read_text()
        assert len(table) == record["result"]["rendered_chars"]
    rows, _ = aggregate_records(records, campaign="table1")
    assert len({row.group for row in rows}) == 1
    assert {row.n for row in rows} == {2}
