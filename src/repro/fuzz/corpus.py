"""JSONL fuzz corpus: persistence and order-independent merge.

A corpus entry wraps a :class:`~repro.fuzz.genome.FuzzCase` with the
reason it is kept:

* ``kind="coverage"`` — the case exercised coverage keys no earlier
  case in its batch had reached (``new_keys`` records which);
* ``kind="failure"`` — the (shrunk) case fails an oracle, identified
  by ``signature``.

The committed regression corpus lives under ``tests/fuzz_corpus/``
(one JSON object per line, sorted by the entry sort key so diffs are
stable); ``tests/fuzz/test_corpus_replay.py`` re-runs every entry, and
the failures a mutant of the source produces (``scripts/mutants.py``)
live there in a file of their own, red under the mutant and green on
the product.

``merge_entries`` is the determinism keystone for multi-worker runs:
it deduplicates by ``(kind, signature, case_key)``, keeps the
*smallest* reproducer per failure signature, and sorts — so any
partition of the same batches merges to the same corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.campaign.spec import canonical_json
from repro.fuzz.genome import FuzzCase, case_key, from_dict, to_dict, to_json

ENTRY_KINDS = ("coverage", "failure")


@dataclass(frozen=True)
class CorpusEntry:
    case: FuzzCase
    kind: str = "coverage"
    signature: str = ""
    new_keys: Tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise ValueError(f"unknown corpus entry kind: {self.kind!r}")
        if self.kind == "failure" and not self.signature:
            raise ValueError(f"{self.kind} entry requires a signature")


def entry_to_dict(entry: CorpusEntry) -> Dict[str, object]:
    return {
        "kind": entry.kind,
        "signature": entry.signature,
        "case": to_dict(entry.case),
        "new_keys": list(entry.new_keys),
        "note": entry.note,
    }


def entry_from_dict(data: Dict[str, object]) -> CorpusEntry:
    return CorpusEntry(
        case=from_dict(data["case"]),
        kind=data.get("kind", "coverage"),
        signature=data.get("signature", ""),
        new_keys=tuple(data.get("new_keys", ())),
        note=data.get("note", ""),
    )


def _sort_key(entry: CorpusEntry) -> Tuple[str, str, str]:
    return (entry.kind, entry.signature, case_key(entry.case))


def _smaller(a: CorpusEntry, b: CorpusEntry) -> CorpusEntry:
    """The preferred reproducer of two same-signature failures."""
    ka = (len(a.case.actions), len(to_json(a.case)), to_json(a.case))
    kb = (len(b.case.actions), len(to_json(b.case)), to_json(b.case))
    return a if ka <= kb else b


def merge_entries(
    *entry_sets: Iterable[CorpusEntry],
) -> List[CorpusEntry]:
    """Union corpora from any number of workers, order-independently.

    Coverage entries dedup by exact case; failure entries keep
    one minimal reproducer per signature.  The result is sorted by
    ``(kind, signature, case_key)``."""
    coverage: Dict[str, CorpusEntry] = {}
    failures: Dict[Tuple[str, str], CorpusEntry] = {}
    for entries in entry_sets:
        for entry in entries:
            if entry.kind == "coverage":
                key = case_key(entry.case)
                kept = coverage.get(key)
                if kept is None:
                    coverage[key] = entry
                else:
                    # identical case from two batches: union the
                    # novelty attribution so merge stays symmetric
                    coverage[key] = replace(
                        kept,
                        new_keys=tuple(
                            sorted(set(kept.new_keys) | set(entry.new_keys))
                        ),
                        note=min(kept.note, entry.note),
                    )
            else:
                key2 = (entry.kind, entry.signature)
                kept = failures.get(key2)
                failures[key2] = (
                    entry if kept is None else _smaller(kept, entry)
                )
    merged = list(coverage.values()) + list(failures.values())
    merged.sort(key=_sort_key)
    return merged


def save_corpus(
    path: Union[str, Path], entries: Sequence[CorpusEntry]
) -> int:
    """Write entries as sorted canonical JSONL; returns the count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = sorted(entries, key=_sort_key)
    with path.open("w", encoding="utf-8") as fh:
        for entry in ordered:
            fh.write(canonical_json(entry_to_dict(entry)) + "\n")
    return len(ordered)


def load_corpus(path: Union[str, Path]) -> List[CorpusEntry]:
    """Read a JSONL corpus; blank lines and ``#`` comments ignored."""
    entries: List[CorpusEntry] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entries.append(entry_from_dict(json.loads(line)))
    return entries
