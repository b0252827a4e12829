"""The coverage-guided search loop and its deterministic batching.

:class:`FuzzEngine` executes genomes under the oracle battery and
keeps two artefacts: a **coverage map** (the union of every executed
case's coverage keys) and a **corpus** (cases that reached new
coverage, plus one minimal shrunk reproducer per failure signature).
The first executed genomes are the fixed :data:`~repro.fuzz.genome
.SEED_CASES`; after that each genome is a mutation of a corpus case,
a crossover of two, or a fresh random case — all drawn from one
``random.Random(seed)``, so a (seed, budget, oracle-set) triple fully
determines the run.

Scaling out preserves determinism by construction: ``--jobs N`` (and
the ``sweep fuzz`` campaign) split the budget into *fixed-size
batches* whose seeds derive from the master seed and batch index
alone.  Batches never exchange corpus feedback, so any assignment of
batches to workers produces the same batch reports, and
:func:`merge_reports` / :func:`~repro.fuzz.corpus.merge_entries`
combine them order-independently.  The report digest therefore
answers "did these two campaigns observe the same behaviour?" with a
single string comparison — across reruns and worker counts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import canonical_json, derive_seed
from repro.fuzz.corpus import (
    CorpusEntry,
    entry_from_dict,
    entry_to_dict,
    merge_entries,
    save_corpus,
)
from repro.fuzz.genome import (
    DEFAULT_BOUNDS,
    SEED_CASES,
    FuzzCase,
    GenomeBounds,
    case_key,
    crossover,
    mutate,
    random_case,
)
from repro.fuzz.runner import ORACLES, Failure, check_case
from repro.fuzz.shrink import shrink_case

#: per-failure shrink probe budget
SHRINK_PROBES = 120


@dataclass
class FuzzReport:
    """Outcome of one fuzz run (or a deterministic merge of several)."""

    seed: int
    executed: int = 0
    coverage: Tuple[str, ...] = ()
    entries: List[CorpusEntry] = field(default_factory=list)
    shrink_probes: int = 0
    skipped: int = 0

    @property
    def failures(self) -> List[CorpusEntry]:
        return [e for e in self.entries if e.kind != "coverage"]

    def digest(self) -> str:
        """Identity of everything the campaign observed.  Covers the
        coverage map and the merged corpus (including shrunk failure
        genomes); excludes human-facing details and probe counts, so
        it is stable across reruns and worker counts."""
        payload = {
            "coverage": sorted(self.coverage),
            "corpus": [entry_to_dict(e) for e in self.entries],
        }
        return hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()


def report_to_dict(report: FuzzReport) -> Dict[str, Any]:
    return {
        "seed": report.seed,
        "executed": report.executed,
        "coverage_keys": len(report.coverage),
        "corpus_size": len(report.entries),
        "failure_count": len(report.failures),
        "shrink_probes": report.shrink_probes,
        "skipped_oracles": report.skipped,
        "digest": report.digest(),
        "coverage": sorted(report.coverage),
        "corpus": [entry_to_dict(e) for e in report.entries],
    }


def report_from_dict(data: Dict[str, Any]) -> FuzzReport:
    """The inverse of :func:`report_to_dict` (its derived counts and
    digest are recomputed, not read)."""
    return FuzzReport(
        seed=data["seed"],
        executed=data["executed"],
        coverage=tuple(data["coverage"]),
        entries=[entry_from_dict(e) for e in data["corpus"]],
        shrink_probes=data["shrink_probes"],
        skipped=data["skipped_oracles"],
    )


def write_report(report: FuzzReport, out_dir: Path) -> List[Path]:
    """Write ``fuzz-corpus.jsonl`` and ``fuzz-report.json`` under
    ``out_dir`` (created if missing); returns the two paths."""
    corpus_path = Path(out_dir) / "fuzz-corpus.jsonl"
    save_corpus(corpus_path, report.entries)
    report_path = Path(out_dir) / "fuzz-report.json"
    report_path.write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return [corpus_path, report_path]


def merge_reports(
    reports: Sequence[FuzzReport], seed: int = 0
) -> FuzzReport:
    """Deterministically combine batch reports from any worker split."""
    return FuzzReport(
        seed=seed,
        executed=sum(r.executed for r in reports),
        coverage=tuple(
            sorted(set().union(*(set(r.coverage) for r in reports)))
            if reports else ()
        ),
        entries=merge_entries(*(r.entries for r in reports)),
        shrink_probes=sum(r.shrink_probes for r in reports),
        skipped=sum(r.skipped for r in reports),
    )


class FuzzEngine:
    """One deterministic fuzzing batch."""

    def __init__(
        self,
        seed: int = 0,
        bounds: GenomeBounds = DEFAULT_BOUNDS,
        oracles: Sequence[str] = ORACLES,
        store=None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.seed = seed
        self.bounds = bounds
        self.oracles = tuple(oracles)
        self.store = store
        self._log = log or (lambda msg: None)
        self._rng = random.Random(seed)
        self._coverage: set = set()
        self._pool: List[FuzzCase] = []
        self._seen: set = set()
        self._entries: List[CorpusEntry] = []
        self._failed_signatures: set = set()
        self.report = FuzzReport(seed=seed)

    # -- genome scheduling ------------------------------------------------

    def _next_case(self, index: int) -> FuzzCase:
        if index < len(SEED_CASES):
            return SEED_CASES[index]
        roll = self._rng.random()
        if self._pool and roll < 0.6:
            return mutate(
                self._rng.choice(self._pool), self._rng, self.bounds
            )
        if len(self._pool) >= 2 and roll < 0.8:
            a = self._rng.choice(self._pool)
            b = self._rng.choice(self._pool)
            return crossover(a, b, self._rng, self.bounds)
        return random_case(self._rng, self.bounds)

    # -- failure handling -------------------------------------------------

    def _still_fails(self, failure: Failure) -> Callable[[FuzzCase], bool]:
        def predicate(candidate: FuzzCase) -> bool:
            probe = check_case(
                candidate, oracles=(failure.oracle,), store=self.store,
                coverage=False,
            )
            return any(
                f.signature == failure.signature for f in probe.failures
            )

        return predicate

    def _record_failure(self, failure: Failure, case: FuzzCase) -> None:
        self._failed_signatures.add(failure.signature)
        self._log(
            f"# failure {failure.signature} in case {case_key(case)}; "
            "shrinking"
        )
        result = shrink_case(
            case,
            self._still_fails(failure),
            bounds=self.bounds,
            max_probes=SHRINK_PROBES,
        )
        self.report.shrink_probes += result.probes
        shrunk = result.case
        self._entries.append(
            CorpusEntry(
                case=shrunk,
                kind="failure",
                signature=failure.signature,
                note=f"oracle={failure.oracle}",
            )
        )
        self._log(
            f"# shrunk {failure.signature} to "
            f"{len(shrunk.actions)} action(s) "
            f"({result.probes} probe(s), key {case_key(shrunk)})"
        )

    # -- the loop ---------------------------------------------------------

    def run_one(self, case: FuzzCase) -> None:
        key = case_key(case)
        self.report.executed += 1
        if key in self._seen:
            return
        self._seen.add(key)
        result = check_case(case, self.oracles, self.store)
        self.report.skipped += len(result.skipped)
        new_keys = set(result.base.coverage) - self._coverage
        self._coverage.update(result.base.coverage)
        if new_keys:
            self._pool.append(case)
            self._entries.append(
                CorpusEntry(
                    case=case,
                    kind="coverage",
                    new_keys=tuple(sorted(new_keys)),
                )
            )
        for failure in result.failures:
            if failure.signature not in self._failed_signatures:
                self._record_failure(failure, case)

    def run(self, budget: int) -> FuzzReport:
        for index in range(budget):
            self.run_one(self._next_case(index))
        self.report.coverage = tuple(sorted(self._coverage))
        self.report.entries = merge_entries(self._entries)
        return self.report


# ---------------------------------------------------------------------------
# batching (CLI --jobs and the `sweep fuzz` campaign share this)
# ---------------------------------------------------------------------------

def batch_seed(master_seed: int, batch: int) -> int:
    return derive_seed(master_seed, f"fuzz/batch/{batch}")


def run_batch(params: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one fixed-size fuzz batch; the campaign task body.

    ``params``: ``master_seed`` (campaign seed), ``batch`` (index),
    ``batch_size`` (genomes to execute), optional ``oracles``."""
    engine = FuzzEngine(
        seed=batch_seed(int(params["master_seed"]), int(params["batch"])),
        oracles=tuple(params.get("oracles", ORACLES)),
    )
    report = engine.run(int(params["batch_size"]))
    return report_to_dict(report)
