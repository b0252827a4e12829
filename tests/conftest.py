"""The expire-leak mutant, run once per session in its own interpreter.

``scripts/mutants.py`` copies ``src/`` under the session's temporary
directory and plants ``peerview.expire-leak`` in the copy; one
subprocess that imports ``repro`` from the copy runs
:func:`expire_leak_verdicts` and hands its verdicts back as JSON.  The
product under test is never patched.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANT_CORPUS = ROOT / "tests" / "fuzz_corpus" / "expire-leak.jsonl"


def load_mutants():
    """``scripts/mutants.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def expire_leak_verdicts(corpus, out_dir):
    """What the fuzzer and the oracles say about the mutated package.

    Called inside the mutant's interpreter: ``FuzzEngine(seed=0).run(8)``
    twice, each shrunk reproducer re-checked, seed case 0, every entry
    of ``corpus``, and a two-genome ``jxta-repro fuzz`` writing to
    ``out_dir``."""
    from repro.fuzz import SEED_CASES, FuzzEngine, check_case, load_corpus
    from repro.fuzz.cli import fuzz_main
    from repro.fuzz.corpus import entry_to_dict

    def fired(entry):
        oracle = entry.signature.split(":", 1)[0]
        report = check_case(entry.case, oracles=(oracle,))
        return sorted(f.signature for f in report.failures)

    first, second = (FuzzEngine(seed=0).run(8) for _ in range(2))
    cli_exit = fuzz_main(
        ["--seed", "0", "--budget", "2", "--batch-size", "2",
         "--oracles", "invariants", "--quiet", "--out", out_dir]
    )
    seed_case_0 = check_case(SEED_CASES[0], oracles=("invariants",))
    return {
        "digests": [first.digest(), second.digest()],
        "shrink_probes": first.shrink_probes,
        "failures": [entry_to_dict(e) for e in first.failures],
        "reproduced": [fired(e) for e in first.failures],
        "seed_case_0": [f.signature for f in seed_case_0.failures],
        "corpus": [fired(e) for e in load_corpus(corpus)],
        "cli_exit": cli_exit,
        "cli_corpus": [
            entry_to_dict(e)
            for e in load_corpus(Path(out_dir) / "fuzz-corpus.jsonl")
        ],
    }


@pytest.fixture(scope="session")
def expire_leak(tmp_path_factory):
    """:func:`expire_leak_verdicts` of the ``peerview.expire-leak``
    mutant."""
    root = tmp_path_factory.mktemp("expire-leak")
    mutants = load_mutants()
    src = mutants.apply("peerview.expire-leak", root)
    return mutants.call_in(
        src, Path(__file__), "expire_leak_verdicts",
        str(MUTANT_CORPUS), str(root / "fuzz-out"),
    )
