"""Property tests for the fuzz layer (genome codec, mutation,
shrinker, corpus merge).

Genomes are generated the way the engine generates them — via the
seeded ``random_case``/``mutate`` pipeline — so every property runs
over the exact distribution the fuzzer explores."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import (
    SEED_CASES,
    CorpusEntry,
    FuzzCase,
    case_key,
    crossover,
    from_dict,
    from_json,
    merge_entries,
    mutate,
    random_case,
    shrink_case,
    to_dict,
    to_json,
    validate_case,
)
from repro.fuzz.corpus import entry_to_dict


def _case_from_seed(n: int, mutations: int = 0) -> FuzzCase:
    rng = random.Random(n)
    case = random_case(rng)
    for _ in range(mutations):
        case = mutate(case, rng)
    return case


@given(st.integers(0, 10**9), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_round_trip_is_byte_identical(n, mutations):
    case = _case_from_seed(n, mutations)
    encoded = to_json(case)
    decoded = from_json(encoded)
    assert decoded == case
    assert to_json(decoded) == encoded  # byte identity, not just equality
    assert from_dict(to_dict(case)) == case
    assert case_key(decoded) == case_key(case)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_mutation_always_yields_valid_bounded_genome(n):
    rng = random.Random(n)
    case = rng.choice(SEED_CASES + (random_case(rng),))
    for _ in range(6):
        case = mutate(case, rng)
        validate_case(case)  # raises on violation
        assert all(a["at"] <= case.duration for a in case.actions)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_crossover_always_yields_valid_bounded_genome(n):
    rng = random.Random(n)
    a = random_case(rng)
    b = random_case(rng)
    child = crossover(a, b, rng)
    validate_case(child)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_shrinker_output_still_fails_the_same_predicate(n):
    rng = random.Random(n)
    case = _case_from_seed(n)
    if not case.actions:
        return
    # synthetic oracle: "fails" iff a specific surviving action kind
    # is present — the same signature-predicate shape the engine uses
    wanted = rng.choice(case.actions)["kind"]

    def still_fails(candidate):
        return any(a["kind"] == wanted for a in candidate.actions)

    result = shrink_case(case, still_fails, max_probes=80)
    assert still_fails(result.case)
    validate_case(result.case)
    assert len(result.case.actions) <= len(case.actions)


@given(st.integers(0, 10**9), st.data())
@settings(max_examples=40, deadline=None)
def test_corpus_merge_is_order_independent(n, data):
    rng = random.Random(n)
    entries = []
    for i in range(rng.randint(2, 8)):
        case = _case_from_seed(n + i)
        if rng.random() < 0.5:
            entries.append(
                CorpusEntry(case=case, new_keys=(f"metric:k{i % 3}",))
            )
        else:
            entries.append(
                CorpusEntry(
                    case=case,
                    kind="failure",
                    signature=f"invariants:sig{i % 2}",
                )
            )
    split = rng.randint(0, len(entries))
    merged_ab = merge_entries(entries[:split], entries[split:])
    merged_ba = merge_entries(entries[split:], entries[:split])
    shuffled = list(entries)
    rng.shuffle(shuffled)
    merged_shuffled = merge_entries(shuffled)
    as_dicts = lambda ms: [entry_to_dict(e) for e in ms]  # noqa: E731
    assert as_dicts(merged_ab) == as_dicts(merged_ba)
    assert as_dicts(merged_ab) == as_dicts(merged_shuffled)
    # idempotent: merging the merge changes nothing
    assert as_dicts(merge_entries(merged_ab)) == as_dicts(merged_ab)

