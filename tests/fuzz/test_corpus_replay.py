"""Replay every committed fuzz-corpus entry as a regression test.

``coverage.jsonl`` entries must pass the full oracle battery;
``canary.jsonl`` entries must fire their recorded signature with the
planted canary armed (``SimOptions(canaries=CANARIES)``), stay green
with it off, and carry at most 8 actions (the shrink-quality bar)."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz import check_case, load_corpus
from repro.sim.options import CANARIES, SimOptions

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"

COVERAGE_ENTRIES = load_corpus(CORPUS_DIR / "coverage.jsonl")
CANARY_ENTRIES = load_corpus(CORPUS_DIR / "canary.jsonl")


def _ids(entries):
    from repro.fuzz import case_key

    return [f"{e.kind}-{case_key(e.case)}" for e in entries]


def test_corpus_files_exist():
    assert COVERAGE_ENTRIES, "committed coverage corpus is empty"
    assert CANARY_ENTRIES, "committed canary corpus is empty"


@pytest.mark.parametrize(
    "entry", COVERAGE_ENTRIES, ids=_ids(COVERAGE_ENTRIES)
)
def test_coverage_entry_replays_green(entry):
    disarmed = replace(SimOptions.from_env(), canaries=())
    report = check_case(entry.case, options=disarmed)
    assert report.failures == [], [
        f.signature for f in report.failures
    ]


@pytest.mark.parametrize(
    "entry", CANARY_ENTRIES, ids=_ids(CANARY_ENTRIES)
)
def test_canary_entry_is_shrunk_and_flagged(entry):
    assert entry.requires_canary
    assert entry.kind == "canary"
    assert entry.signature.startswith("invariants:")
    assert len(entry.case.actions) <= 8


@pytest.mark.parametrize(
    "entry", CANARY_ENTRIES, ids=_ids(CANARY_ENTRIES)
)
def test_canary_entry_red_with_canary_green_without(entry):
    oracle = entry.signature.split(":", 1)[0]
    disarmed = replace(SimOptions.from_env(), canaries=())
    armed = check_case(
        entry.case,
        oracles=(oracle,),
        options=replace(disarmed, canaries=CANARIES),
    )
    assert entry.signature in [f.signature for f in armed.failures]

    clean = check_case(entry.case, oracles=(oracle,), options=disarmed)
    assert clean.failures == [], [
        f.signature for f in clean.failures
    ]
