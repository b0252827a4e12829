"""Every row of the paper-claim table holds, and EXPERIMENTS.md cites
the table.  Each experiment runs once however many rows read it."""

import functools
import re
from pathlib import Path

import pytest

from repro.analysis.claims import CLAIMS, evaluate
from repro.experiments.cli import run_experiment

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
#: a cited claim id: a backticked ``<experiment>.<finding>``
CITATION = re.compile(r"`([a-z0-9]+\.[a-z0-9-]+)`")

_results = functools.lru_cache(maxsize=None)(run_experiment)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds(claim):
    value, holds = evaluate(claim, _results(claim.experiment, "ci"))
    assert holds, f"{claim.id} ({claim.source}): {value:g} fails {claim.band!r}"


def test_claim_ids_are_unique():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)


def test_every_check_mark_cites_a_claim():
    known = {claim.id for claim in CLAIMS}
    for line in EXPERIMENTS_MD.read_text(encoding="utf-8").splitlines():
        if "✔" in line:
            cited = set(CITATION.findall(line))
            assert cited and cited <= known, f"cite known claim ids: {line}"


def test_every_claim_is_cited():
    cited = set(CITATION.findall(EXPERIMENTS_MD.read_text(encoding="utf-8")))
    missing = {claim.id for claim in CLAIMS} - cited
    assert not missing, f"claims EXPERIMENTS.md never cites: {sorted(missing)}"
