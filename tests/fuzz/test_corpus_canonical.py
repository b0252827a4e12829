"""Every committed corpus line is already in canonical form: decoding
it and encoding it again gives the same bytes, so a corpus entry's
identity never depends on who wrote the file."""

import json
from pathlib import Path

import pytest

from repro.campaign.spec import canonical_json
from repro.fuzz.corpus import entry_from_dict, entry_to_dict

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.jsonl"))


def test_corpus_files_found():
    assert CORPUS_FILES, f"no *.jsonl under {CORPUS_DIR}"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_lines_re_encode_byte_identically(path):
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert lines, f"{path.name} is empty"
    for line in lines:
        entry = entry_from_dict(json.loads(line))
        assert canonical_json(entry_to_dict(entry)) == line
