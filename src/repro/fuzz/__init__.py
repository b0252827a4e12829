"""Coverage-guided deterministic fuzzing of the protocol stack.

The fuzzer searches the space of *adversarial interleavings* — fault
schedules, topologies, workloads — for inputs that violate the
system's correctness contracts.  Everything is deterministic: a
:class:`~repro.fuzz.genome.FuzzCase` is a canonical-JSON genome, every
run is a seeded simulation, mutation/crossover draw from one seeded
``random.Random``, and the whole campaign (corpus, coverage map,
failure set) digests to a single sha256 that is identical across
repeat runs and worker counts.

Layers (see docs/FUZZING.md):

* :mod:`repro.fuzz.genome` — the ``FuzzCase`` codec, its gene
  tables, validation, mutation and crossover;
* :mod:`repro.fuzz.runner` — executes one case and applies the oracle
  battery (invariants, snapshot invisibility, replay identity);
* :mod:`repro.fuzz.shrink` — deterministic delta-debugging shrinker;
* :mod:`repro.fuzz.corpus` — JSONL corpus entries, order-independent
  merge, the committed regression corpus under ``tests/fuzz_corpus/``;
* :mod:`repro.fuzz.engine` — the coverage-guided search loop and the
  campaign batch task;
* :mod:`repro.fuzz.cli` — ``jxta-repro fuzz``.
"""

from repro.fuzz.corpus import CorpusEntry, load_corpus, merge_entries, save_corpus
from repro.fuzz.engine import FuzzEngine, FuzzReport, merge_reports, run_batch
from repro.fuzz.genome import (
    SEED_CASES,
    FuzzCase,
    case_key,
    crossover,
    from_dict,
    from_json,
    mutate,
    random_case,
    to_dict,
    to_json,
    validate_case,
)
from repro.fuzz.runner import ORACLES, CaseReport, Failure, check_case, run_case
from repro.fuzz.shrink import ShrinkResult, shrink_case

__all__ = [
    "CorpusEntry",
    "load_corpus",
    "merge_entries",
    "save_corpus",
    "FuzzEngine",
    "FuzzReport",
    "merge_reports",
    "run_batch",
    "SEED_CASES",
    "FuzzCase",
    "case_key",
    "crossover",
    "from_dict",
    "from_json",
    "mutate",
    "random_case",
    "to_dict",
    "to_json",
    "validate_case",
    "ORACLES",
    "CaseReport",
    "Failure",
    "check_case",
    "run_case",
    "ShrinkResult",
    "shrink_case",
]
