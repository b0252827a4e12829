"""Unit tests for the fuzz engine, corpus merge, shrinker and CLI."""

import json

import pytest

from repro.fuzz import (
    CorpusEntry,
    FuzzCase,
    load_corpus,
    merge_entries,
    save_corpus,
    shrink_case,
)
from repro.fuzz.cli import fuzz_main
from repro.fuzz.corpus import entry_from_dict, entry_to_dict
from repro.fuzz.engine import (
    FuzzEngine,
    batch_seed,
    merge_reports,
    run_batch,
)

CHEAP = ("invariants",)


# ---------------------------------------------------------------------------
# engine determinism
# ---------------------------------------------------------------------------

def test_same_seed_same_digest():
    r1 = FuzzEngine(seed=5, oracles=CHEAP).run(8)
    r2 = FuzzEngine(seed=5, oracles=CHEAP).run(8)
    assert r1.digest() == r2.digest()
    assert [entry_to_dict(e) for e in r1.entries] == [
        entry_to_dict(e) for e in r2.entries
    ]
    assert r1.coverage == r2.coverage


def test_different_seeds_diverge_after_seed_cases():
    # the first genomes are the fixed SEED_CASES, so divergence only
    # shows once the rng-driven tail differs
    r1 = FuzzEngine(seed=1, oracles=CHEAP).run(8)
    r2 = FuzzEngine(seed=2, oracles=CHEAP).run(8)
    assert r1.executed == r2.executed == 8


def test_batch_seed_derivation_is_stable():
    assert batch_seed(0, 0) == batch_seed(0, 0)
    assert batch_seed(0, 0) != batch_seed(0, 1)
    assert batch_seed(0, 0) != batch_seed(1, 0)


def test_run_batch_record_round_trips():
    rec = run_batch(
        {"master_seed": 0, "batch": 0, "batch_size": 5,
         "oracles": CHEAP}
    )
    assert rec["executed"] == 5
    assert rec["digest"]
    json.dumps(rec)  # JSON-serializable for the campaign store


def test_merge_reports_is_order_independent():
    reports = [
        FuzzEngine(seed=batch_seed(0, i), oracles=CHEAP).run(5)
        for i in range(3)
    ]
    forward = merge_reports(reports, seed=0)
    backward = merge_reports(list(reversed(reports)), seed=0)
    assert forward.digest() == backward.digest()
    assert forward.executed == 15


# ---------------------------------------------------------------------------
# corpus persistence and merge
# ---------------------------------------------------------------------------

def _entry(seed, kind="coverage", signature="", actions=(), **kw):
    return CorpusEntry(
        case=FuzzCase(seed=seed, actions=tuple(actions)),
        kind=kind,
        signature=signature,
        **kw,
    )


def test_entry_requires_signature_for_failures():
    with pytest.raises(ValueError):
        _entry(1, kind="failure")
    with pytest.raises(ValueError):
        _entry(1, kind="bogus")


def test_save_load_round_trip(tmp_path):
    entries = [
        _entry(1, new_keys=("metric:counters.x",)),
        _entry(2, kind="failure", signature="invariants:x"),
    ]
    path = tmp_path / "corpus.jsonl"
    assert save_corpus(path, entries) == 2
    loaded = load_corpus(path)
    assert [entry_to_dict(e) for e in loaded] == [
        entry_to_dict(e) for e in sorted(
            entries, key=lambda e: (e.kind, e.signature)
        )
    ]


def test_merge_dedups_and_keeps_smallest_reproducer():
    crash = {"kind": "crash", "at": 60.0, "peer": 1}
    big = _entry(
        1, kind="failure", signature="invariants:x",
        actions=[crash, dict(crash, peer=2)],
    )
    small = _entry(
        1, kind="failure", signature="invariants:x", actions=[crash]
    )
    cov = _entry(3, new_keys=("a",))
    cov_dup = _entry(3, new_keys=("b",))
    m1 = merge_entries([big, cov], [small, cov_dup])
    m2 = merge_entries([small, cov_dup], [big, cov])
    assert [entry_to_dict(e) for e in m1] == [
        entry_to_dict(e) for e in m2
    ]
    failures = [e for e in m1 if e.kind == "failure"]
    assert len(failures) == 1
    assert len(failures[0].case.actions) == 1
    coverage = [e for e in m1 if e.kind == "coverage"]
    assert len(coverage) == 1
    assert coverage[0].new_keys == ("a", "b")


def test_entry_dict_round_trip():
    entry = _entry(
        4, kind="failure", signature="invariants:y", note="oracle=invariants",
    )
    assert entry_to_dict(entry_from_dict(entry_to_dict(entry))) == (
        entry_to_dict(entry)
    )


# ---------------------------------------------------------------------------
# shrinker (synthetic predicates: no simulation needed)
# ---------------------------------------------------------------------------

def _crash(at, peer):
    return {"kind": "crash", "at": at, "peer": peer}


def test_shrinker_drops_irrelevant_actions():
    case = FuzzCase(
        seed=2, duration=300.0,
        actions=tuple(_crash(60.0 + i, i) for i in range(8)),
    )

    def needs_peer_3(candidate):
        return any(a["peer"] == 3 for a in candidate.actions)

    result = shrink_case(case, needs_peer_3)
    assert result.improved
    assert needs_peer_3(result.case)
    assert len(result.case.actions) == 1


def test_shrinker_never_returns_passing_case():
    case = FuzzCase(seed=2, actions=(_crash(60.0, 1), _crash(70.0, 2)))

    def always_fails(candidate):
        return True

    result = shrink_case(case, always_fails)
    assert always_fails(result.case)
    assert len(result.case.actions) == 0  # everything was droppable


def test_shrinker_respects_probe_budget():
    case = FuzzCase(
        seed=2, duration=300.0,
        actions=tuple(_crash(60.0 + i, i) for i in range(10)),
    )
    calls = []

    def predicate(candidate):
        calls.append(1)
        return len(candidate.actions) >= 9

    result = shrink_case(case, predicate, max_probes=7)
    assert result.probes <= 7
    assert len(calls) <= 7
    assert len(result.case.actions) >= 9


def test_shrinker_merges_overlapping_windows():
    case = FuzzCase(
        seed=2, duration=300.0,
        actions=(
            {"kind": "loss", "at": 60.0, "duration": 50.0, "rate": 0.5},
            {"kind": "loss", "at": 90.0, "duration": 50.0, "rate": 0.5},
        ),
    )

    def needs_long_loss(candidate):
        spans = [
            (a["at"], a["at"] + a["duration"])
            for a in candidate.actions if a["kind"] == "loss"
        ]
        return bool(spans) and max(e for _, e in spans) - min(
            s for s, _ in spans
        ) >= 70.0

    result = shrink_case(case, needs_long_loss)
    assert len(result.case.actions) == 1
    assert needs_long_loss(result.case)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_writes_corpus_and_report(tmp_path, capsys):
    rc = fuzz_main(
        ["--seed", "0", "--budget", "5", "--batch-size", "5",
         "--oracles", "invariants", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "# digest: " in out
    report = json.loads((tmp_path / "fuzz-report.json").read_text())
    assert report["executed"] == 5
    corpus = load_corpus(tmp_path / "fuzz-corpus.jsonl")
    assert len(corpus) == report["corpus_size"]


def test_cli_rejects_bad_flags(capsys):
    with pytest.raises(SystemExit):
        fuzz_main(["--budget", "0"])
    with pytest.raises(SystemExit):
        fuzz_main(["--oracles", "nonsense"])
    with pytest.raises(SystemExit):
        fuzz_main(["--jobs", "0"])


def test_cli_exit_code_signals_failures(expire_leak):
    # ``--seed 0 --budget 2 --batch-size 2 --oracles invariants --out``,
    # run on the expire-leak mutant
    assert expire_leak["cli_exit"] == 1
    assert any(e["kind"] == "failure" for e in expire_leak["cli_corpus"])


def _cli_lines(capsys, jobs):
    rc = fuzz_main(
        ["--seed", "0", "--budget", "3", "--batch-size", "2",
         "--oracles", "invariants", "--jobs", str(jobs)]
    )
    assert rc == 0
    return capsys.readouterr().out.splitlines()


def test_cli_pool_matches_serial_and_keeps_remainder_batch(capsys):
    serial = _cli_lines(capsys, jobs=1)
    pooled = _cli_lines(capsys, jobs=2)
    digests = [line for line in pooled if line.startswith("# digest: ")]
    assert len(digests) == 1 and digests[0] in serial
    # 3 genomes in batches of 2: the remainder batch of 1 still runs
    assert "# executed 3 genome(s)" in pooled


def test_sweep_finalizer_merges_batches_under_the_master_seed(tmp_path):
    from repro.campaign.tasks import fuzz_finalize

    params = [
        {"master_seed": 5, "batch": i, "batch_size": 2, "oracles": CHEAP}
        for i in range(2)
    ]
    results = [run_batch(p) for p in params]
    # what the run store hands the finalizer: JSON-round-tripped records
    records = json.loads(json.dumps([
        {"key": str(i), "task": "fuzz", "params": p, "status": "ok",
         "result": r}
        for i, (p, r) in enumerate(zip(params, results))
    ]))
    lines = fuzz_finalize(records, tmp_path)
    expected = merge_reports(
        [FuzzEngine(seed=batch_seed(5, i), oracles=CHEAP).run(2)
         for i in range(2)],
        seed=5,
    )
    report = json.loads((tmp_path / "fuzz-report.json").read_text())
    assert report["seed"] == 5
    assert report["digest"] == expected.digest()
    assert report["executed"] == 4
    assert f"# fuzz digest: {expected.digest()}" in lines
    assert len(load_corpus(tmp_path / "fuzz-corpus.jsonl")) == len(
        expected.entries
    )


def test_main_cli_delegates_fuzz(capsys):
    from repro.experiments.cli import main as cli_main

    rc = cli_main(
        ["fuzz", "--seed", "0", "--budget", "2", "--batch-size", "2",
         "--oracles", "invariants", "--quiet"]
    )
    assert rc == 0
    assert "# digest: " in capsys.readouterr().out
