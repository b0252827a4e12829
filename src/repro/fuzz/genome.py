"""The ``FuzzCase`` genome: a canonical-JSON description of one run.

A genome pins everything a fuzz execution depends on — simulator seed,
overlay shape (``r``/topology), the platform-config knobs that gate
expiry behaviour, a bounded sequence of fault actions drawn from the
:mod:`repro.faults.actions` vocabulary, and an optional open-loop
workload.  Two contracts matter:

* **byte-identical round trip** — ``from_json(to_json(c))`` encodes
  back to the same bytes (``canonical_json``: sorted keys, no
  whitespace).  ``case_key`` (sha256 prefix of those bytes) is the
  corpus identity.
* **bounded validity** — :func:`validate_case` enforces each gene
  row's range; :func:`random_case`, :func:`mutate` and
  :func:`crossover` only ever produce valid genomes (pinned by the
  property suite).

Peer references are *indices*, decoded modulo ``r`` to ``rdv-<i>``
names, so shrinking ``r`` never invalidates an action.
``CorruptPeerView`` is deliberately excluded from the vocabulary: it
exists to validate the invariant checker, and a fuzzer that injects
corruption "finds" a violation every time it uses it.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.campaign.spec import canonical_json
from repro.faults.actions import (
    ChurnWindow,
    ClockSkew,
    CrashPeer,
    DuplicateWindow,
    HealAllSites,
    HealSites,
    LossWindow,
    PartitionSites,
    ReorderWindow,
    RestartPeer,
    Scenario,
)
from repro.network.site import GRID5000_SITES

#: Grid'5000 site names an action may reference (fixed vocabulary).
SITE_NAMES: Tuple[str, ...] = tuple(s.name for s in GRID5000_SITES)

#: Simulated seconds of fault-free bootstrap every execution shares
#: (deploy + first peerview rounds).  Actions must fire after it —
#: that is what makes the bootstrap a warm-startable checkpoint prefix
#: (see repro.fuzz.runner).
BOOTSTRAP_TIME = 30.0

#: Highest peer index a genome may name (decoded modulo ``r``).
MAX_PEER_INDEX = 63

#: Earliest instant an action may fire (> BOOTSTRAP_TIME so the
#: shared bootstrap prefix is genuinely fault-free).
MIN_ACTION_AT = 40.0

#: The limits more than one gene row (or the shrinker) reads; every
#: other limit is a literal in its row.
R_MIN, R_MAX = 3, 12
DURATION_MIN, DURATION_MAX = 120.0, 600.0
MAX_ACTIONS = 12
MAX_CHURN_TARGETS = 4
PVE_EXPIRATION_MAX = 1200.0

GENOME_VERSION = 1


@dataclass(frozen=True)
class FuzzCase:
    """One genome.  ``actions`` is a tuple of plain JSON dicts (one
    schema per kind in :data:`ACTIONS`); ``workload`` is either None or
    a dict of the :data:`WORKLOAD` fields."""

    seed: int = 1
    r: int = 6
    topology: str = "chain"
    duration: float = 240.0
    pve_expiration: float = 300.0
    peerview_interval: float = 30.0
    actions: Tuple[Dict[str, Any], ...] = ()
    workload: Optional[Dict[str, Any]] = None


# ---------------------------------------------------------------------------
# the schema: one Gene per field
# ---------------------------------------------------------------------------

def _t(rng: random.Random, lo: float, hi: float) -> float:
    """A time/scalar draw, rounded to 0.1 for tidy genomes."""
    return round(rng.uniform(lo, hi), 1)


def peer_name(index: int, r: int) -> str:
    """Peer index -> deployed rendezvous name (modulo ``r``, so a
    genome stays decodable as ``r`` shrinks)."""
    return f"rdv-{index % r}"


@dataclass(frozen=True)
class Gene:
    """One genome field: its legal range, the fuzzer's draw and the
    shrinker's mildest value.  ``kind`` is ``"real"``, ``"int"``,
    ``"peer"`` (an index decoded modulo ``r``), ``"peers"`` (``lo``..
    ``hi`` peer indices) or ``"name"`` (one of ``hi``).  ``lo`` is
    exclusive when ``open_lo``.  ``draw(rng, case_duration)`` defaults
    to the whole legal range; ``mildest`` (a peer list: how many it
    keeps) is what the shrinker weakens to, None for never."""

    kind: str
    lo: Any = None
    hi: Any = None
    draw: Optional[Callable[[random.Random, float], Any]] = None
    mildest: Any = None
    open_lo: bool = False

    def legal(self) -> str:
        if self.kind == "name":
            return f"{self.hi}"
        return f"{'(' if self.open_lo else '['}{self.lo}, {self.hi}]"

    def accepts(self, value: Any) -> bool:
        lo, hi = self.lo, self.hi
        if self.kind == "name":
            return value in hi
        if self.kind == "peers":
            return (
                isinstance(value, (list, tuple))
                and lo <= len(value) <= hi
                and all(PEER.accepts(t) for t in value)
            )
        number = numbers.Real if self.kind == "real" else int
        if not isinstance(value, number) or isinstance(value, bool):
            return False
        return (lo < value if self.open_lo else lo <= value) and value <= hi

    def sample(
        self, rng: random.Random, duration: float, count: int = 1
    ) -> Any:
        """The fuzzer's draw (a peer list: ``count`` peer draws)."""
        if self.kind == "peers":
            return [PEER.sample(rng, duration) for _ in range(count)]
        if self.draw is not None:
            return self.draw(rng, duration)
        if self.kind == "name":
            return rng.choice(self.hi)
        if self.kind == "real":
            return _t(rng, self.lo, self.hi)
        return rng.randint(self.lo, self.hi)

    def decode(self, value: Any, r: int) -> Any:
        if self.kind == "peer":
            return peer_name(value, r)
        if self.kind == "peers":
            # dedupe after the modulo fold, preserving first-seen order
            return tuple(dict.fromkeys(peer_name(t, r) for t in value))
        return float(value) if self.kind == "real" else value

    def weakest(self, value: Any) -> Any:
        return value[: self.mildest] if self.kind == "peers" else self.mildest


def _u(lo: float, hi: float) -> Callable[..., float]:
    """A rounded uniform draw over a fixed ``[lo, hi]``."""
    return lambda rng, d: _t(rng, lo, hi)


def _at(duration: float) -> Gene:
    """Every action's ``at``: after the bootstrap prefix, inside the run."""
    return Gene("real", MIN_ACTION_AT, duration)


def _window(shortest: float) -> Gene:
    """A window: drawn from ``shortest`` to the run's end, weakened to it."""
    return Gene(
        "real", 0.0, DURATION_MAX, lambda rng, d: _t(rng, shortest, d),
        mildest=shortest, open_lo=True,
    )


PEER = Gene(
    "peer", 0, MAX_PEER_INDEX, lambda rng, d: rng.randint(0, R_MAX - 1)
)
SITE = Gene("name", hi=SITE_NAMES)
_SHARE = Gene("real", 0.0, 0.9, _u(0.1, 0.5), mildest=0.2, open_lo=True)

#: kind -> (FaultAction class, its fields in draw order).  Every action
#: also has an :func:`_at`, drawn first.
ACTIONS: Dict[str, Tuple[type, Dict[str, Gene]]] = {
    "loss": (LossWindow, {"duration": _window(10.0), "rate": _SHARE}),
    "duplicate": (DuplicateWindow, {
        "duration": _window(10.0),
        "probability": _SHARE,
        "copies": Gene("int", 1, 3, lambda rng, d: rng.randint(1, 2), 1),
    }),
    "reorder": (ReorderWindow, {
        "duration": _window(10.0),
        "max_extra_delay": Gene(
            "real", 0.0, 5.0, _u(0.5, 4.0), mildest=0.5, open_lo=True
        ),
    }),
    "partition": (PartitionSites, {"site_a": SITE, "site_b": SITE}),
    "heal": (HealSites, {"site_a": SITE, "site_b": SITE}),
    "heal-all": (HealAllSites, {}),
    "crash": (CrashPeer, {"peer": PEER}),
    "restart": (RestartPeer, {"peer": PEER}),
    "churn": (ChurnWindow, {
        "duration": _window(20.0),
        "mean_session": Gene("real", 5.0, 600.0, _u(20.0, 120.0)),
        "mean_downtime": Gene("real", 2.0, 120.0, _u(5.0, 60.0), 2.0),
        "targets": Gene("peers", 1, MAX_CHURN_TARGETS, mildest=1),
    }),
    "clock-skew": (ClockSkew, {
        "peer": PEER,
        "factor": Gene(
            "real", 0.25, 4.0,
            lambda rng, d: rng.choice([0.5, 2.0, 3.0]), mildest=1.0,
        ),
    }),
}

#: Action kinds the fuzzer may emit (``CorruptPeerView`` excluded).
ACTION_KINDS: Tuple[str, ...] = tuple(ACTIONS)

#: The case-level fields (``pve_expiration``/``peerview_interval`` sit
#: under ``config`` in the encoding).
CASE: Dict[str, Gene] = {
    "seed": Gene(
        "int", 0, 2 ** 32 - 1, lambda rng, d: rng.randrange(2 ** 16)
    ),
    "r": Gene("int", R_MIN, R_MAX),
    "topology": Gene("name", hi=("chain", "tree", "star")),
    "duration": Gene("real", DURATION_MIN, DURATION_MAX),
    "pve_expiration": Gene(
        "real", 45.0, PVE_EXPIRATION_MAX,
        lambda rng, d: _t(rng, 45.0, min(PVE_EXPIRATION_MAX, 2 * d)),
    ),
    "peerview_interval": Gene("real", 10.0, 60.0),
}

WORKLOAD: Dict[str, Gene] = {
    "queriers": Gene("int", 1, 4),
    "publishers": Gene("int", 0, 2),
    "rate": Gene("real", 0.2, 4.0),
    "catalog_size": Gene("int", 10, 60),
}


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

#: the CASE fields encoded under ``config``
_CONFIG = ("pve_expiration", "peerview_interval")
_TOP_KEYS = {"v", "config", *CASE} - set(_CONFIG)


def to_dict(case: FuzzCase) -> Dict[str, Any]:
    return {
        "v": GENOME_VERSION,
        **{name: getattr(case, name) for name in CASE if name not in _CONFIG},
        "config": {name: getattr(case, name) for name in _CONFIG},
        "actions": [dict(a) for a in case.actions],
        "workload": dict(case.workload) if case.workload is not None else None,
    }


def to_json(case: FuzzCase) -> str:
    """Canonical encoding: sorted keys, no whitespace — the identity
    the corpus, the dedup map and every digest hang off."""
    return canonical_json(to_dict(case))


def from_dict(data: Dict[str, Any]) -> FuzzCase:
    _check(isinstance(data, dict), "a genome must be a JSON object")
    if data.get("v") != GENOME_VERSION:
        raise ValueError(f"unsupported genome version {data.get('v')!r}")
    _check(
        set(data) - {"actions", "workload"} == _TOP_KEYS,
        f"keys {sorted(map(str, data))} != {sorted(_TOP_KEYS)} "
        "and optional actions, workload",
    )
    config, actions = data["config"], data.get("actions", [])
    workload = data.get("workload")
    _check(
        isinstance(config, dict) and set(config) == set(_CONFIG),
        f"config must hold exactly {_CONFIG}",
    )
    _check(
        isinstance(actions, (list, tuple))
        and all(isinstance(a, dict) for a in actions),
        "actions must be a list of objects",
    )
    case = FuzzCase(
        **{name: data[name] for name in CASE if name not in _CONFIG},
        **config,
        actions=tuple(dict(a) for a in actions),
        # a non-dict workload is left for validate_case to reject
        workload=dict(workload) if isinstance(workload, dict) else workload,
    )
    validate_case(case)
    return case


def from_json(text: str) -> FuzzCase:
    return from_dict(json.loads(text))


def case_key(case: FuzzCase) -> str:
    """Stable 16-hex-digit identity of a genome."""
    return hashlib.sha256(to_json(case).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _invalid(msg: str) -> ValueError:
    return ValueError(f"invalid genome: {msg}")


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise _invalid(msg)


def _check_fields(
    values: Dict[str, Any], genes: Dict[str, Gene], where: str,
    others: Tuple[str, ...] = (),
) -> None:
    """Check that ``values`` holds exactly ``others`` and the genes'
    fields, and that each gene accepts its value."""
    expected = {*others, *genes}
    if set(values) != expected:
        raise _invalid(f"{where}fields {sorted(values)} != {sorted(expected)}")
    for name, gene in genes.items():
        if not gene.accepts(values[name]):
            raise _invalid(
                f"{where}{name}={values[name]!r} outside {gene.legal()}"
            )


def _validate_action(action: Dict[str, Any], duration: float) -> None:
    _check(isinstance(action, dict), "action must be a dict")
    kind = action.get("kind")
    _check(kind in ACTION_KINDS, f"unknown action kind {kind!r}")
    genes = {"at": _at(duration), **ACTIONS[kind][1]}
    _check_fields(action, genes, f"{kind}: ", ("kind",))
    sites = [action[name] for name, gene in genes.items() if gene is SITE]
    _check(len(set(sites)) == len(sites), f"{kind}: site_a == site_b")


def validate_case(case: FuzzCase) -> None:
    """Raise ``ValueError`` unless every gene of ``case`` accepts its
    value."""
    _check_fields(vars(case), CASE, "", ("actions", "workload"))
    _check(
        len(case.actions) <= MAX_ACTIONS,
        f"{len(case.actions)} actions > max {MAX_ACTIONS}",
    )
    for action in case.actions:
        _validate_action(action, case.duration)
    if case.workload is not None:
        _check(isinstance(case.workload, dict), "workload must be a dict")
        _check_fields(case.workload, WORKLOAD, "workload ")


# ---------------------------------------------------------------------------
# decoding into the fault vocabulary
# ---------------------------------------------------------------------------

def decode_action(action: Dict[str, Any], r: int):
    cls, genes = ACTIONS[action["kind"]]
    return cls(
        at=float(action["at"]),
        **{name: gene.decode(action[name], r) for name, gene in genes.items()},
    )


def decode_scenario(case: FuzzCase) -> Scenario:
    """The genome's fault schedule as a runnable Scenario."""
    return Scenario(
        name=f"fuzz-{case_key(case)}",
        actions=tuple(decode_action(a, case.r) for a in case.actions),
        description="fuzzer-generated scenario",
    )


def has_churn(case: FuzzCase) -> bool:
    return any(a["kind"] == "churn" for a in case.actions)


# ---------------------------------------------------------------------------
# generation / mutation / crossover (all driven by one random.Random)
# ---------------------------------------------------------------------------

def random_action(rng: random.Random, duration: float) -> Dict[str, Any]:
    kind = rng.choice(ACTION_KINDS)
    action = {"kind": kind, "at": _at(duration).sample(rng, duration)}
    # partition/heal take both sites from one sample, before any field
    if kind in ("partition", "heal"):
        action["site_a"], action["site_b"] = rng.sample(SITE_NAMES, 2)
    # churn draws its target count before its scalars, its targets after
    count = rng.randint(1, MAX_CHURN_TARGETS) if kind == "churn" else 0
    for name, gene in ACTIONS[kind][1].items():
        if name not in action:
            action[name] = gene.sample(rng, duration, count)
    return action


def random_workload(rng: random.Random) -> Dict[str, Any]:
    return {name: gene.sample(rng, 0.0) for name, gene in WORKLOAD.items()}


def random_case(rng: random.Random) -> FuzzCase:
    duration = CASE["duration"].sample(rng, 0.0)
    # bias toward few actions: min of two draws keeps most genomes
    # small (fast) while the tail still reaches MAX_ACTIONS
    count = min(rng.randint(0, MAX_ACTIONS), rng.randint(0, MAX_ACTIONS))
    case = FuzzCase(
        duration=duration,
        **{
            name: gene.sample(rng, duration)
            for name, gene in CASE.items() if name != "duration"
        },
        actions=tuple(random_action(rng, duration) for _ in range(count)),
        workload=random_workload(rng) if rng.random() < 0.3 else None,
    )
    validate_case(case)
    return case


def _drop_late_actions(
    actions: Tuple[Dict[str, Any], ...], duration: float
) -> Tuple[Dict[str, Any], ...]:
    return tuple(a for a in actions if a["at"] <= duration)


#: mutate's redraw operators -> the CASE fields each one draws afresh
_REDRAW: Dict[str, Tuple[str, ...]] = {
    "reseed": ("seed",),
    "resize": ("r", "topology"),
    "retime": ("duration",),
    "reconfig": ("pve_expiration", "peerview_interval"),
}
MUTATE_OPERATORS: Tuple[str, ...] = (
    "add-action", "drop-action", "replace-action", "tweak-time", *_REDRAW,
    "reworkload",
)


def mutate(case: FuzzCase, rng: random.Random) -> FuzzCase:
    """One mutation step; always returns a *valid* genome (possibly
    equal to the input when the drawn operator has nothing to do)."""
    op = rng.choice(MUTATE_OPERATORS)
    out, actions = case, list(case.actions)
    if op == "add-action" and len(actions) < MAX_ACTIONS:
        pos = rng.randint(0, len(actions))
        actions.insert(pos, random_action(rng, case.duration))
    elif op == "drop-action" and actions:
        del actions[rng.randrange(len(actions))]
    elif op == "replace-action" and actions:
        pos = rng.randrange(len(actions))
        actions[pos] = random_action(rng, case.duration)
    elif op == "tweak-time" and actions:
        pos = rng.randrange(len(actions))
        at = _at(case.duration).sample(rng, case.duration)
        actions[pos] = dict(actions[pos], at=at)
    elif op in _REDRAW:
        out = replace(case, **{
            name: CASE[name].sample(rng, case.duration)
            for name in _REDRAW[op]
        })
        if op == "retime":
            actions = _drop_late_actions(actions, out.duration)
    elif op == "reworkload" and case.workload is not None:
        out = replace(case, workload=None)
    elif op == "reworkload":
        out = replace(case, workload=random_workload(rng))
    out = replace(out, actions=tuple(actions))
    validate_case(out)
    return out


def crossover(a: FuzzCase, b: FuzzCase, rng: random.Random) -> FuzzCase:
    """Recombine two genomes: scalars picked per-field, the action list
    spliced prefix-of-a + suffix-of-b (bounded, late actions dropped)."""
    duration = rng.choice((a.duration, b.duration))
    cut_a = rng.randint(0, len(a.actions))
    cut_b = rng.randint(0, len(b.actions))
    actions = _drop_late_actions(
        (a.actions[:cut_a] + b.actions[cut_b:])[:MAX_ACTIONS], duration
    )
    out = FuzzCase(
        duration=duration,
        **{
            name: rng.choice((getattr(a, name), getattr(b, name)))
            for name in CASE if name != "duration"
        },
        actions=actions,
        workload=rng.choice((a.workload, b.workload)),
    )
    validate_case(out)
    return out


# ---------------------------------------------------------------------------
# deterministic anchor cases (run first, before any mutation)
# ---------------------------------------------------------------------------

SEED_CASES: Tuple[FuzzCase, ...] = (
    # 1 — fault-free baseline: anchors the clean-run coverage keys
    FuzzCase(
        seed=1, r=6, topology="chain", duration=240.0,
        pve_expiration=300.0, peerview_interval=30.0,
    ),
    # 2 — crash + expiry: crashed peers' entries age out of every other
    # view (the path scripts/mutants.py's peerview.expire-leak corrupts)
    FuzzCase(
        seed=2, r=6, topology="chain", duration=300.0,
        pve_expiration=60.0, peerview_interval=15.0,
        actions=(
            {"kind": "crash", "at": 60.0, "peer": 1},
            {"kind": "crash", "at": 70.0, "peer": 2},
            {"kind": "restart", "at": 240.0, "peer": 1},
        ),
    ),
    # 3 — churn under loss: the paper's phase-2/3 volatility regime
    FuzzCase(
        seed=3, r=8, topology="tree", duration=300.0,
        pve_expiration=120.0, peerview_interval=15.0,
        actions=(
            {
                "kind": "churn", "at": 60.0, "duration": 120.0,
                "mean_session": 40.0, "mean_downtime": 15.0,
                "targets": [2, 3, 4],
            },
            {"kind": "loss", "at": 60.0, "duration": 100.0, "rate": 0.2},
        ),
    ),
    # 4 — partition + open-loop workload: exercises the SLO-replay and
    # (once healed) the convergence paths
    FuzzCase(
        seed=4, r=6, topology="star", duration=240.0,
        pve_expiration=300.0, peerview_interval=30.0,
        actions=(
            {"kind": "partition", "at": 60.0,
             "site_a": "rennes", "site_b": "sophia"},
            {"kind": "heal", "at": 150.0,
             "site_a": "rennes", "site_b": "sophia"},
        ),
        workload={
            "queriers": 2, "publishers": 1, "rate": 1.0, "catalog_size": 20,
        },
    ),
)
