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
* **bounded validity** — :func:`validate_case` enforces
  :class:`GenomeBounds`; :func:`random_case`, :func:`mutate` and
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
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

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

#: Action kinds the fuzzer may emit (``CorruptPeerView`` excluded).
ACTION_KINDS: Tuple[str, ...] = (
    "loss", "duplicate", "reorder", "partition", "heal", "heal-all",
    "crash", "restart", "churn", "clock-skew",
)

#: Highest peer index a genome may name (decoded modulo ``r``).
MAX_PEER_INDEX = 63

GENOME_VERSION = 1


@dataclass(frozen=True)
class GenomeBounds:
    """The box every genome must live in (validated, not clamped)."""

    r_min: int = 3
    r_max: int = 12
    duration_min: float = 120.0
    duration_max: float = 600.0
    max_actions: int = 12
    #: earliest instant an action may fire (> BOOTSTRAP_TIME so the
    #: shared bootstrap prefix is genuinely fault-free)
    min_action_at: float = 40.0
    pve_expiration_min: float = 45.0
    pve_expiration_max: float = 1200.0
    peerview_interval_min: float = 10.0
    peerview_interval_max: float = 60.0
    topologies: Tuple[str, ...] = ("chain", "tree", "star")
    max_churn_targets: int = 4
    max_queriers: int = 4
    max_publishers: int = 2
    rate_min: float = 0.2
    rate_max: float = 4.0
    catalog_min: int = 10
    catalog_max: int = 60


DEFAULT_BOUNDS = GenomeBounds()


@dataclass(frozen=True)
class FuzzCase:
    """One genome.  ``actions`` is a tuple of plain JSON dicts (see the
    per-kind schemas in :data:`_ACTION_FIELDS`); ``workload`` is either
    None or ``{"queriers", "publishers", "rate", "catalog_size"}``."""

    seed: int = 1
    r: int = 6
    topology: str = "chain"
    duration: float = 240.0
    pve_expiration: float = 300.0
    peerview_interval: float = 30.0
    actions: Tuple[Dict[str, Any], ...] = ()
    workload: Optional[Dict[str, Any]] = None


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def to_dict(case: FuzzCase) -> Dict[str, Any]:
    return {
        "v": GENOME_VERSION,
        "seed": case.seed,
        "r": case.r,
        "topology": case.topology,
        "duration": case.duration,
        "config": {
            "pve_expiration": case.pve_expiration,
            "peerview_interval": case.peerview_interval,
        },
        "actions": [dict(a) for a in case.actions],
        "workload": dict(case.workload) if case.workload is not None else None,
    }


def to_json(case: FuzzCase) -> str:
    """Canonical encoding: sorted keys, no whitespace — the identity
    the corpus, the dedup map and every digest hang off."""
    return canonical_json(to_dict(case))


def from_dict(
    data: Dict[str, Any], bounds: GenomeBounds = DEFAULT_BOUNDS
) -> FuzzCase:
    if data.get("v") != GENOME_VERSION:
        raise ValueError(f"unsupported genome version {data.get('v')!r}")
    config = data.get("config", {})
    workload = data.get("workload")
    case = FuzzCase(
        seed=data["seed"],
        r=data["r"],
        topology=data["topology"],
        duration=data["duration"],
        pve_expiration=config["pve_expiration"],
        peerview_interval=config["peerview_interval"],
        actions=tuple(dict(a) for a in data.get("actions", [])),
        workload=dict(workload) if workload is not None else None,
    )
    validate_case(case, bounds)
    return case


def from_json(text: str, bounds: GenomeBounds = DEFAULT_BOUNDS) -> FuzzCase:
    return from_dict(json.loads(text), bounds)


def case_key(case: FuzzCase) -> str:
    """Stable 16-hex-digit identity of a genome."""
    return hashlib.sha256(to_json(case).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _is_num(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: kind -> (required numeric window?, field validators).  Each
#: validator is (predicate, description); ``at`` is validated for all.
def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(f"invalid genome: {msg}")


def _validate_action(
    action: Dict[str, Any], duration: float, bounds: GenomeBounds
) -> None:
    _check(isinstance(action, dict), "action must be a dict")
    kind = action.get("kind")
    _check(kind in ACTION_KINDS, f"unknown action kind {kind!r}")
    at = action.get("at")
    _check(_is_num(at), f"{kind}: 'at' must be a number")
    _check(
        bounds.min_action_at <= at <= duration,
        f"{kind}: at={at} outside [{bounds.min_action_at}, {duration}]",
    )

    def need(fields: Tuple[str, ...]) -> None:
        _check(
            set(action) == {"kind", "at", *fields},
            f"{kind}: fields {sorted(action)} != expected "
            f"{sorted(('kind', 'at', *fields))}",
        )

    if kind in ("loss", "duplicate", "reorder", "churn"):
        window = action.get("duration")
        _check(_is_num(window), f"{kind}: 'duration' must be a number")
        _check(
            0 < window <= bounds.duration_max,
            f"{kind}: window duration {window} outside (0, "
            f"{bounds.duration_max}]",
        )
    if kind == "loss":
        need(("duration", "rate"))
        _check(
            _is_num(action["rate"]) and 0.0 < action["rate"] <= 0.9,
            f"loss rate {action.get('rate')} outside (0, 0.9]",
        )
    elif kind == "duplicate":
        need(("duration", "probability", "copies"))
        _check(
            _is_num(action["probability"])
            and 0.0 < action["probability"] <= 0.9,
            f"duplicate probability {action.get('probability')} "
            "outside (0, 0.9]",
        )
        _check(
            _is_int(action["copies"]) and 1 <= action["copies"] <= 3,
            f"duplicate copies {action.get('copies')} outside [1, 3]",
        )
    elif kind == "reorder":
        need(("duration", "max_extra_delay"))
        _check(
            _is_num(action["max_extra_delay"])
            and 0.0 < action["max_extra_delay"] <= 5.0,
            f"reorder max_extra_delay {action.get('max_extra_delay')} "
            "outside (0, 5]",
        )
    elif kind in ("partition", "heal"):
        need(("site_a", "site_b"))
        _check(
            action["site_a"] in SITE_NAMES and action["site_b"] in SITE_NAMES,
            f"{kind}: sites must come from {SITE_NAMES}",
        )
        _check(
            action["site_a"] != action["site_b"],
            f"{kind}: site_a == site_b",
        )
    elif kind == "heal-all":
        need(())
    elif kind in ("crash", "restart"):
        need(("peer",))
        _check(
            _is_int(action["peer"]) and 0 <= action["peer"] <= MAX_PEER_INDEX,
            f"{kind}: peer index {action.get('peer')} outside "
            f"[0, {MAX_PEER_INDEX}]",
        )
    elif kind == "churn":
        need(("duration", "mean_session", "mean_downtime", "targets"))
        _check(
            _is_num(action["mean_session"])
            and 5.0 <= action["mean_session"] <= 600.0,
            f"churn mean_session {action.get('mean_session')} "
            "outside [5, 600]",
        )
        _check(
            _is_num(action["mean_downtime"])
            and 2.0 <= action["mean_downtime"] <= 120.0,
            f"churn mean_downtime {action.get('mean_downtime')} "
            "outside [2, 120]",
        )
        targets = action.get("targets")
        _check(
            isinstance(targets, (list, tuple))
            and 1 <= len(targets) <= bounds.max_churn_targets,
            f"churn targets must hold 1..{bounds.max_churn_targets} "
            "peer indices",
        )
        for t in targets:
            _check(
                _is_int(t) and 0 <= t <= MAX_PEER_INDEX,
                f"churn target {t!r} outside [0, {MAX_PEER_INDEX}]",
            )
    elif kind == "clock-skew":
        need(("peer", "factor"))
        _check(
            _is_int(action["peer"]) and 0 <= action["peer"] <= MAX_PEER_INDEX,
            f"clock-skew peer index outside [0, {MAX_PEER_INDEX}]",
        )
        _check(
            _is_num(action["factor"]) and 0.25 <= action["factor"] <= 4.0,
            f"clock-skew factor {action.get('factor')} outside [0.25, 4]",
        )


def validate_case(
    case: FuzzCase, bounds: GenomeBounds = DEFAULT_BOUNDS
) -> None:
    """Raise ``ValueError`` unless ``case`` lies inside ``bounds``."""
    _check(_is_int(case.seed) and 0 <= case.seed < 2 ** 32, "seed outside [0, 2^32)")
    _check(
        _is_int(case.r) and bounds.r_min <= case.r <= bounds.r_max,
        f"r={case.r} outside [{bounds.r_min}, {bounds.r_max}]",
    )
    _check(
        case.topology in bounds.topologies,
        f"topology {case.topology!r} not in {bounds.topologies}",
    )
    _check(
        _is_num(case.duration)
        and bounds.duration_min <= case.duration <= bounds.duration_max,
        f"duration={case.duration} outside "
        f"[{bounds.duration_min}, {bounds.duration_max}]",
    )
    _check(
        _is_num(case.pve_expiration)
        and bounds.pve_expiration_min
        <= case.pve_expiration
        <= bounds.pve_expiration_max,
        f"pve_expiration={case.pve_expiration} outside "
        f"[{bounds.pve_expiration_min}, {bounds.pve_expiration_max}]",
    )
    _check(
        _is_num(case.peerview_interval)
        and bounds.peerview_interval_min
        <= case.peerview_interval
        <= bounds.peerview_interval_max,
        f"peerview_interval={case.peerview_interval} outside "
        f"[{bounds.peerview_interval_min}, {bounds.peerview_interval_max}]",
    )
    _check(
        len(case.actions) <= bounds.max_actions,
        f"{len(case.actions)} actions > max {bounds.max_actions}",
    )
    for action in case.actions:
        _validate_action(action, case.duration, bounds)
    if case.workload is not None:
        w = case.workload
        _check(isinstance(w, dict), "workload must be a dict or None")
        _check(
            set(w) == {"queriers", "publishers", "rate", "catalog_size"},
            f"workload fields {sorted(w)} unexpected",
        )
        _check(
            _is_int(w["queriers"]) and 1 <= w["queriers"] <= bounds.max_queriers,
            f"workload queriers outside [1, {bounds.max_queriers}]",
        )
        _check(
            _is_int(w["publishers"])
            and 0 <= w["publishers"] <= bounds.max_publishers,
            f"workload publishers outside [0, {bounds.max_publishers}]",
        )
        _check(
            _is_num(w["rate"]) and bounds.rate_min <= w["rate"] <= bounds.rate_max,
            f"workload rate outside [{bounds.rate_min}, {bounds.rate_max}]",
        )
        _check(
            _is_int(w["catalog_size"])
            and bounds.catalog_min <= w["catalog_size"] <= bounds.catalog_max,
            f"workload catalog_size outside "
            f"[{bounds.catalog_min}, {bounds.catalog_max}]",
        )


# ---------------------------------------------------------------------------
# decoding into the fault vocabulary
# ---------------------------------------------------------------------------

def peer_name(index: int, r: int) -> str:
    """Peer index -> deployed rendezvous name (modulo ``r``, so a
    genome stays decodable as ``r`` shrinks)."""
    return f"rdv-{index % r}"


def decode_action(action: Dict[str, Any], r: int):
    kind = action["kind"]
    at = float(action["at"])
    if kind == "loss":
        return LossWindow(
            at=at, duration=float(action["duration"]),
            rate=float(action["rate"]),
        )
    if kind == "duplicate":
        return DuplicateWindow(
            at=at, duration=float(action["duration"]),
            probability=float(action["probability"]),
            copies=int(action["copies"]),
        )
    if kind == "reorder":
        return ReorderWindow(
            at=at, duration=float(action["duration"]),
            max_extra_delay=float(action["max_extra_delay"]),
        )
    if kind == "partition":
        return PartitionSites(
            at=at, site_a=action["site_a"], site_b=action["site_b"]
        )
    if kind == "heal":
        return HealSites(
            at=at, site_a=action["site_a"], site_b=action["site_b"]
        )
    if kind == "heal-all":
        return HealAllSites(at=at)
    if kind == "crash":
        return CrashPeer(at=at, peer=peer_name(action["peer"], r))
    if kind == "restart":
        return RestartPeer(at=at, peer=peer_name(action["peer"], r))
    if kind == "churn":
        # dedupe after the modulo fold, preserving first-seen order
        targets = tuple(
            dict.fromkeys(peer_name(t, r) for t in action["targets"])
        )
        return ChurnWindow(
            at=at, duration=float(action["duration"]),
            mean_session=float(action["mean_session"]),
            mean_downtime=float(action["mean_downtime"]),
            targets=targets,
        )
    if kind == "clock-skew":
        return ClockSkew(
            at=at, peer=peer_name(action["peer"], r),
            factor=float(action["factor"]),
        )
    raise ValueError(f"unknown action kind {kind!r}")


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

def _t(rng: random.Random, lo: float, hi: float) -> float:
    """A time/scalar draw, rounded to 0.1 for tidy genomes."""
    return round(rng.uniform(lo, hi), 1)


def random_action(
    rng: random.Random, duration: float, bounds: GenomeBounds = DEFAULT_BOUNDS
) -> Dict[str, Any]:
    kind = rng.choice(ACTION_KINDS)
    at = _t(rng, bounds.min_action_at, duration)
    if kind == "loss":
        return {
            "kind": kind, "at": at,
            "duration": _t(rng, 10.0, duration),
            "rate": _t(rng, 0.1, 0.5),
        }
    if kind == "duplicate":
        return {
            "kind": kind, "at": at,
            "duration": _t(rng, 10.0, duration),
            "probability": _t(rng, 0.1, 0.5),
            "copies": rng.randint(1, 2),
        }
    if kind == "reorder":
        return {
            "kind": kind, "at": at,
            "duration": _t(rng, 10.0, duration),
            "max_extra_delay": _t(rng, 0.5, 4.0),
        }
    if kind in ("partition", "heal"):
        site_a, site_b = rng.sample(SITE_NAMES, 2)
        return {"kind": kind, "at": at, "site_a": site_a, "site_b": site_b}
    if kind == "heal-all":
        return {"kind": kind, "at": at}
    if kind in ("crash", "restart"):
        return {"kind": kind, "at": at, "peer": rng.randint(0, bounds.r_max - 1)}
    if kind == "churn":
        count = rng.randint(1, bounds.max_churn_targets)
        return {
            "kind": kind, "at": at,
            "duration": _t(rng, 20.0, duration),
            "mean_session": _t(rng, 20.0, 120.0),
            "mean_downtime": _t(rng, 5.0, 60.0),
            "targets": [rng.randint(0, bounds.r_max - 1) for _ in range(count)],
        }
    return {  # clock-skew
        "kind": kind, "at": at,
        "peer": rng.randint(0, bounds.r_max - 1),
        "factor": rng.choice([0.5, 2.0, 3.0]),
    }


def random_workload(
    rng: random.Random, bounds: GenomeBounds = DEFAULT_BOUNDS
) -> Dict[str, Any]:
    return {
        "queriers": rng.randint(1, bounds.max_queriers),
        "publishers": rng.randint(0, bounds.max_publishers),
        "rate": _t(rng, bounds.rate_min, bounds.rate_max),
        "catalog_size": rng.randint(bounds.catalog_min, bounds.catalog_max),
    }


def random_case(
    rng: random.Random, bounds: GenomeBounds = DEFAULT_BOUNDS
) -> FuzzCase:
    duration = _t(rng, bounds.duration_min, bounds.duration_max)
    # bias toward few actions: min of two draws keeps most genomes
    # small (fast) while the tail still reaches max_actions
    count = min(
        rng.randint(0, bounds.max_actions), rng.randint(0, bounds.max_actions)
    )
    case = FuzzCase(
        seed=rng.randrange(2 ** 16),
        r=rng.randint(bounds.r_min, bounds.r_max),
        topology=rng.choice(bounds.topologies),
        duration=duration,
        pve_expiration=_t(
            rng, bounds.pve_expiration_min,
            min(bounds.pve_expiration_max, 2 * duration),
        ),
        peerview_interval=_t(
            rng, bounds.peerview_interval_min, bounds.peerview_interval_max
        ),
        actions=tuple(
            random_action(rng, duration, bounds) for _ in range(count)
        ),
        workload=random_workload(rng, bounds) if rng.random() < 0.3 else None,
    )
    validate_case(case, bounds)
    return case


def _drop_late_actions(
    actions: Tuple[Dict[str, Any], ...], duration: float
) -> Tuple[Dict[str, Any], ...]:
    return tuple(a for a in actions if a["at"] <= duration)


def mutate(
    case: FuzzCase,
    rng: random.Random,
    bounds: GenomeBounds = DEFAULT_BOUNDS,
) -> FuzzCase:
    """One mutation step; always returns a *valid* genome (possibly
    equal to the input when the drawn operator has nothing to do)."""
    op = rng.choice(
        (
            "add-action", "drop-action", "replace-action", "tweak-time",
            "reseed", "resize", "retime", "reconfig", "reworkload",
        )
    )
    out = case
    if op == "add-action" and len(case.actions) < bounds.max_actions:
        pos = rng.randint(0, len(case.actions))
        action = random_action(rng, case.duration, bounds)
        out = replace(
            case,
            actions=case.actions[:pos] + (action,) + case.actions[pos:],
        )
    elif op == "drop-action" and case.actions:
        pos = rng.randrange(len(case.actions))
        out = replace(
            case, actions=case.actions[:pos] + case.actions[pos + 1:]
        )
    elif op == "replace-action" and case.actions:
        pos = rng.randrange(len(case.actions))
        action = random_action(rng, case.duration, bounds)
        out = replace(
            case,
            actions=case.actions[:pos] + (action,) + case.actions[pos + 1:],
        )
    elif op == "tweak-time" and case.actions:
        pos = rng.randrange(len(case.actions))
        action = dict(case.actions[pos])
        action["at"] = _t(rng, bounds.min_action_at, case.duration)
        out = replace(
            case,
            actions=case.actions[:pos] + (action,) + case.actions[pos + 1:],
        )
    elif op == "reseed":
        out = replace(case, seed=rng.randrange(2 ** 16))
    elif op == "resize":
        out = replace(
            case,
            r=rng.randint(bounds.r_min, bounds.r_max),
            topology=rng.choice(bounds.topologies),
        )
    elif op == "retime":
        duration = _t(rng, bounds.duration_min, bounds.duration_max)
        out = replace(
            case,
            duration=duration,
            actions=_drop_late_actions(case.actions, duration),
        )
    elif op == "reconfig":
        out = replace(
            case,
            pve_expiration=_t(
                rng, bounds.pve_expiration_min,
                min(bounds.pve_expiration_max, 2 * case.duration),
            ),
            peerview_interval=_t(
                rng, bounds.peerview_interval_min,
                bounds.peerview_interval_max,
            ),
        )
    elif op == "reworkload":
        out = replace(
            case,
            workload=(
                None if case.workload is not None
                else random_workload(rng, bounds)
            ),
        )
    validate_case(out, bounds)
    return out


def crossover(
    a: FuzzCase,
    b: FuzzCase,
    rng: random.Random,
    bounds: GenomeBounds = DEFAULT_BOUNDS,
) -> FuzzCase:
    """Recombine two genomes: scalars picked per-field, the action list
    spliced prefix-of-a + suffix-of-b (bounded, late actions dropped)."""
    duration = rng.choice((a.duration, b.duration))
    cut_a = rng.randint(0, len(a.actions))
    cut_b = rng.randint(0, len(b.actions))
    actions = _drop_late_actions(
        (a.actions[:cut_a] + b.actions[cut_b:])[: bounds.max_actions], duration
    )
    out = FuzzCase(
        seed=rng.choice((a.seed, b.seed)),
        r=rng.choice((a.r, b.r)),
        topology=rng.choice((a.topology, b.topology)),
        duration=duration,
        pve_expiration=rng.choice((a.pve_expiration, b.pve_expiration)),
        peerview_interval=rng.choice(
            (a.peerview_interval, b.peerview_interval)
        ),
        actions=actions,
        workload=rng.choice((a.workload, b.workload)),
    )
    validate_case(out, bounds)
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
    # view (the path the peerview.expire-leak canary corrupts)
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
