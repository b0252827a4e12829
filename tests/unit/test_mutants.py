"""Every planted mutant still applies to today's source.

A row of ``scripts/mutants.py``'s ``MUTANTS`` whose anchor no longer
occurs exactly once would plant nothing, and the end-to-end tests
would go on proving the fuzzer against the unmutated product.  This
fails first: the anchor matches once and the mutated module parses.
"""

import pytest

from tests.conftest import load_mutants

MUTANTS = load_mutants()


@pytest.mark.parametrize("name", sorted(MUTANTS.MUTANTS))
def test_mutant_anchor_matches_once_and_the_module_parses(name):
    module = MUTANTS.MUTANTS[name][0]
    original = (MUTANTS.SRC / "repro" / module).read_text(encoding="utf-8")
    assert MUTANTS.patched(name) != original
