"""Replay every committed fuzz-corpus entry as a regression test.

``coverage.jsonl`` entries must pass the full oracle battery.
``expire-leak.jsonl`` holds the failures the fuzzer found on the
``peerview.expire-leak`` mutant (``scripts/mutants.py``): each must
carry at most 8 actions (the shrink-quality bar), replay green on the
product and fire its recorded signature under the mutant."""

from pathlib import Path

import pytest

from repro.fuzz import case_key, check_case, load_corpus

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"

COVERAGE_ENTRIES = load_corpus(CORPUS_DIR / "coverage.jsonl")
MUTANT_ENTRIES = load_corpus(CORPUS_DIR / "expire-leak.jsonl")


def _ids(entries):
    return [f"{e.kind}-{case_key(e.case)}" for e in entries]


def test_corpus_files_exist():
    assert COVERAGE_ENTRIES, "committed coverage corpus is empty"
    assert MUTANT_ENTRIES, "committed mutant corpus is empty"


@pytest.mark.parametrize(
    "entry", COVERAGE_ENTRIES, ids=_ids(COVERAGE_ENTRIES)
)
def test_coverage_entry_replays_green(entry):
    report = check_case(entry.case)
    assert report.failures == [], [
        f.signature for f in report.failures
    ]


@pytest.mark.parametrize("entry", MUTANT_ENTRIES, ids=_ids(MUTANT_ENTRIES))
def test_mutant_entry_is_shrunk(entry):
    assert entry.kind == "failure"
    assert entry.signature.startswith("invariants:")
    assert len(entry.case.actions) <= 8


@pytest.mark.parametrize(
    "index", range(len(MUTANT_ENTRIES)), ids=_ids(MUTANT_ENTRIES)
)
def test_mutant_entry_red_under_the_mutant_green_on_the_product(
    index, expire_leak
):
    entry = MUTANT_ENTRIES[index]
    assert entry.signature in expire_leak["corpus"][index]

    oracle = entry.signature.split(":", 1)[0]
    clean = check_case(entry.case, oracles=(oracle,))
    assert clean.failures == [], [
        f.signature for f in clean.failures
    ]
