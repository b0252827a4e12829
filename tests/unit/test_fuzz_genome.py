"""Unit tests for the FuzzCase genome codec, validation and decode."""

import hashlib
import math
import random
import re
from pathlib import Path

import pytest

from repro.faults import Scenario
from repro.fuzz import (
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
from repro.fuzz.genome import (
    ACTION_KINDS,
    ACTIONS,
    BOOTSTRAP_TIME,
    CASE,
    MIN_ACTION_AT,
    MUTATE_OPERATORS,
    PEER,
    WORKLOAD,
    Gene,
    decode_action,
    decode_scenario,
    has_churn,
    random_action,
)


def test_seed_cases_valid_and_distinct():
    keys = set()
    for case in SEED_CASES:
        validate_case(case)
        keys.add(case_key(case))
    assert len(keys) == len(SEED_CASES)


def test_round_trip_identity():
    for case in SEED_CASES:
        assert from_json(to_json(case)) == case
        assert from_dict(to_dict(case)) == case


def test_case_key_is_content_hash():
    a = FuzzCase(seed=1)
    b = FuzzCase(seed=1)
    c = FuzzCase(seed=2)
    assert case_key(a) == case_key(b)
    assert case_key(a) != case_key(c)
    assert len(case_key(a)) == 16


def test_unknown_version_rejected():
    data = to_dict(SEED_CASES[0])
    data["v"] = 99
    with pytest.raises(ValueError, match="version"):
        from_dict(data)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r": 2},  # below R_MIN
        {"r": 99},  # above R_MAX
        {"duration": 10.0},  # below DURATION_MIN
        {"topology": "ring"},  # not a topology gene name
        {"pve_expiration": 1.0},
        {"peerview_interval": 500.0},
    ],
)
def test_out_of_bounds_cases_rejected(kwargs):
    with pytest.raises(ValueError):
        validate_case(FuzzCase(**kwargs))


@pytest.mark.parametrize(
    "action",
    [
        {"kind": "loss", "at": 60.0, "duration": 30.0, "rate": 1.5},
        {"kind": "loss", "at": 5.0, "duration": 30.0, "rate": 0.5},
        {"kind": "crash", "at": 60.0},  # missing peer
        {"kind": "crash", "at": 60.0, "peer": 1, "extra": 1},
        {"kind": "warp", "at": 60.0},  # unknown kind
        {"kind": "partition", "at": 60.0, "site_a": "rennes",
         "site_b": "rennes"},
        {"kind": "churn", "at": 60.0, "duration": 30.0,
         "mean_session": 60.0, "mean_downtime": 10.0, "targets": []},
    ],
)
def test_invalid_actions_rejected(action):
    case = FuzzCase(actions=(action,))
    with pytest.raises(ValueError):
        validate_case(case)


def test_decode_scenario_produces_runnable_scenario():
    case = SEED_CASES[1]
    scenario = decode_scenario(case)
    assert isinstance(scenario, Scenario)
    assert len(scenario.actions) == len(case.actions)
    assert scenario.name == f"fuzz-{case_key(case)}"


def test_decode_action_folds_peer_indices_modulo_r():
    action = decode_action({"kind": "crash", "at": 60.0, "peer": 7}, r=6)
    assert action.peer == "rdv-1"


def test_decode_churn_dedups_folded_targets():
    action = decode_action(
        {
            "kind": "churn", "at": 60.0, "duration": 30.0,
            "mean_session": 60.0, "mean_downtime": 10.0,
            "targets": [1, 7, 2],  # 7 % 6 == 1, duplicate
        },
        r=6,
    )
    assert action.targets == ("rdv-1", "rdv-2")


def test_has_churn():
    assert has_churn(SEED_CASES[2])
    assert not has_churn(SEED_CASES[0])


def test_random_case_always_valid():
    rng = random.Random(7)
    for _ in range(50):
        validate_case(random_case(rng))


def test_mutate_and_crossover_always_valid():
    rng = random.Random(11)
    pool = [random_case(rng) for _ in range(8)]
    for _ in range(50):
        child = mutate(rng.choice(pool), rng)
        validate_case(child)
        cross = crossover(rng.choice(pool), rng.choice(pool), rng)
        validate_case(cross)


def test_generation_is_seed_deterministic():
    a = [random_case(random.Random(3)) for _ in range(1)]
    b = [random_case(random.Random(3)) for _ in range(1)]
    assert [to_json(c) for c in a] == [to_json(c) for c in b]


def _broken(edit):
    data = to_dict(SEED_CASES[3])
    edit(data)
    return data


@pytest.mark.parametrize(
    "data",
    [
        _broken(lambda d: d.pop("seed")),
        _broken(lambda d: d.pop("config")),
        _broken(lambda d: d.update(actions=5)),
        _broken(lambda d: d.update(actions=[1])),
        _broken(lambda d: d.update(workload=[1, 2])),
        _broken(lambda d: d.update(workloads=d.pop("workload"))),
        _broken(lambda d: d["config"].update(pve_expiry=60.0)),
        [to_dict(SEED_CASES[0])],
    ],
    ids=[
        "missing-seed", "missing-config", "actions-int", "actions-of-int",
        "workload-list", "misspelled-workload", "extra-config-key",
        "top-level-list",
    ],
)
def test_malformed_genome_raises_value_error(data):
    with pytest.raises(ValueError, match="invalid genome"):
        from_dict(data)


class _RecordingRandom(random.Random):
    """A ``random.Random`` that remembers every ``choice`` it made
    (same stream: only ``choice``'s result is observed)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.picks = []

    def choice(self, seq):
        pick = super().choice(seq)
        self.picks.append(pick)
        return pick


#: sha256 of the genomes seeds 0-199 generate (random_case, six
#: mutations, one crossover).  ``fuzz-batch`` and the pinned report
#: digest consume this stream; a change that moves it must say so.
DRAW_STREAM_DIGEST = (
    "ca50f49644e3d0dca36bffb769c97ffb61ac9293402bffb956029d1cdff15206"
)

def test_draw_stream_is_pinned():
    digest = hashlib.sha256()
    kinds, picks = set(), set()
    for seed in range(200):
        rng = _RecordingRandom(seed)
        first = case = random_case(rng)
        genomes = [case]
        for _ in range(6):
            case = mutate(case, rng)
            genomes.append(case)
        genomes.append(crossover(first, case, rng))
        for genome in genomes:
            digest.update(to_json(genome).encode() + b"\n")
            kinds.update(a["kind"] for a in genome.actions)
        picks.update(p for p in rng.picks if isinstance(p, str))
    assert kinds == set(ACTION_KINDS)
    assert set(MUTATE_OPERATORS) <= picks
    assert digest.hexdigest() == DRAW_STREAM_DIGEST


# ---------------------------------------------------------------------------
# the gene tables: every field's range, draw and decode agree
# ---------------------------------------------------------------------------

RUN = 600.0  # the case duration the schema property runs at


def _drawn(kind, n=20):
    """``n`` actions of ``kind`` as random_action draws them."""
    rng, found = random.Random(kind), []
    while len(found) < n:
        action = random_action(rng, RUN)
        if action["kind"] == kind:
            found.append(action)
    return found


@pytest.mark.parametrize("kind", ACTION_KINDS)
def test_drawn_action_decodes_validates_and_round_trips(kind):
    cls = ACTIONS[kind][0]
    for action in _drawn(kind):
        case = FuzzCase(duration=RUN, actions=(action,))
        validate_case(case)
        assert isinstance(decode_action(action, r=6), cls)
        assert to_json(from_json(to_json(case))) == to_json(case)


def _case_with(table, name, value):
    """A case whose field ``name`` of ``table`` is ``value``."""
    if table == "case":
        return FuzzCase(**{name: value})
    if table == "workload":
        return FuzzCase(workload=dict(SEED_CASES[3].workload, **{name: value}))
    action = dict(_drawn(table, 1)[0], **{name: value})
    return FuzzCase(duration=RUN, actions=(action,))


def _fields():
    yield from (("case", n, g) for n, g in CASE.items())
    yield from (("workload", n, g) for n, g in WORKLOAD.items())
    for kind, (_, genes) in ACTIONS.items():
        yield kind, "at", Gene("real", MIN_ACTION_AT, RUN)
        yield from ((kind, n, g) for n, g in genes.items())


def _edges(gene, taken):
    """(values the gene must accept, values it must reject); a name
    already ``taken`` by a sibling field is not offered."""
    lo, hi = gene.lo, gene.hi
    if gene.kind == "name":
        return [n for n in hi if n not in taken], ["nowhere", None, 1]
    if gene.kind == "peers":
        return (
            [[0] * lo, [63] * hi],
            [[0] * (lo - 1), [0] * (hi + 1), [True], [64], [-1], [1.0], 3],
        )
    step = (lambda v, to: math.nextafter(v, to)) if gene.kind == "real" else (
        lambda v, to: v + (1 if to > v else -1)
    )
    accept = [hi] if gene.open_lo else [lo, hi]
    reject = [step(hi, math.inf), step(lo, -math.inf), math.nan, None, "1"]
    if gene.open_lo:
        reject.append(lo)
    if gene.kind != "real":
        reject += [True, False, float(lo)]
    return accept, reject


@pytest.mark.parametrize(
    "table,name,gene", list(_fields()),
    ids=[f"{t}.{n}" for t, n, _ in _fields()],
)
def test_gene_range_edges(table, name, gene):
    taken = _drawn(table, 1)[0].values() if table in ACTIONS else ()
    accept, reject = _edges(gene, list(taken))
    for value in accept:
        case = _case_with(table, name, value)
        validate_case(case)
        decode_scenario(case)  # the FaultAction accepts it too
    for value in reject:
        with pytest.raises(ValueError):
            validate_case(_case_with(table, name, value))


def test_actions_fire_after_the_bootstrap_prefix():
    # the fault-free shared prefix every execution warm-starts from
    # ends at BOOTSTRAP_TIME; an action inside it would fault it
    assert MIN_ACTION_AT > BOOTSTRAP_TIME


FUZZING_DOC = Path(__file__).resolve().parents[2] / "docs" / "FUZZING.md"


def test_fuzzing_doc_names_every_action_kind():
    text = FUZZING_DOC.read_text(encoding="utf-8")
    missing = [kind for kind in ACTION_KINDS if f"`{kind}`" not in text]
    assert not missing, f"docs/FUZZING.md does not name {missing}"


def _doc_ranges():
    """docs/FUZZING.md's gene table: ``(kind, field) -> legal range``
    cell.  A blank kind cell repeats the kind of the row above."""
    ranges, kinds = {}, []
    for line in FUZZING_DOC.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) != 5 or not cells[1].startswith("`"):
            continue
        if cells[0]:
            kinds = re.findall(r"`([^`]+)`", cells[0]) or [cells[0]]
        for kind in kinds:
            for field in re.findall(r"`([^`]+)`", cells[1]):
                ranges[kind, field] = cells[2]
    return ranges


def _rendered(gene):
    """A numeric gene's legal range, written as the doc writes it."""
    if gene.kind == "peers":
        return f"{gene.lo}–{gene.hi} ints in {_rendered(PEER)}"
    lo, hi = (f"{v:g}" if isinstance(v, float) else f"{v}"
              for v in (gene.lo, gene.hi))
    return f"{'(' if gene.open_lo else '['}{lo}, {hi}]"


def test_fuzzing_doc_gene_table_carries_every_range():
    tables = [("case", CASE), ("workload", WORKLOAD)]
    tables += [(kind, genes) for kind, (_, genes) in ACTIONS.items()]
    expected = [("every kind", "at", Gene("real", MIN_ACTION_AT, "D"))]
    expected += [
        (kind, name, gene) for kind, genes in tables
        for name, gene in genes.items() if gene.kind != "name"
    ]
    ranges = _doc_ranges()
    stale = [
        f"{kind}.{name}: {_rendered(gene)} not in "
        f"{ranges.get((kind, name))!r}"
        for kind, name, gene in expected
        if _rendered(gene) not in ranges.get((kind, name), "")
    ]
    assert not stale, f"docs/FUZZING.md gene table is stale: {stale}"
