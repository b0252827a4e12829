"""Deterministic delta-debugging shrinker for failing fuzz cases.

``shrink_case`` is predicate-driven: the caller supplies
``still_fails(case) -> bool`` (typically "re-run only the oracle that
originally failed") and the shrinker greedily applies
size-non-increasing transformations, keeping any candidate the
predicate accepts:

1. **ddmin over actions** — remove chunks of the action sequence,
   halving chunk size down to single actions;
2. **window merge** — collapse overlapping same-kind loss / duplicate
   / reorder windows into one spanning window;
3. **structure drops** — remove the workload, shrink ``r`` toward
   ``R_MIN``, halve the duration while it stays at least
   ``DURATION_MIN`` (discarding now-late actions);
4. **field weakening** — set each action field that has a
   ``Gene.mildest`` (in the genome's ``ACTIONS`` table) to that mildest
   legal value, field by field in the table's draw order.

Everything is pure function of the input case and the predicate — no
randomness — so a given failure always shrinks to the same minimal
reproducer.  Probes are deduplicated by canonical JSON and capped by
``max_probes``.  A probe is a whole execution, its bootstrap prefix
included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from repro.fuzz.genome import (
    ACTIONS,
    DURATION_MIN,
    R_MIN,
    FuzzCase,
    to_json,
    validate_case,
)

#: window-bearing action kinds eligible for the merge pass
_WINDOW_KINDS = ("loss", "duplicate", "reorder")


@dataclass
class ShrinkResult:
    case: FuzzCase
    probes: int
    improved: bool


def _size(case: FuzzCase) -> Tuple[int, float, int, int, int]:
    """Lexicographic "smaller is better" metric."""
    return (
        len(case.actions),
        case.duration,
        case.r,
        0 if case.workload is None else 1,
        len(to_json(case)),
    )


class _Budget:
    def __init__(self, predicate, max_probes):
        self.predicate = predicate
        self.max_probes = max_probes
        self.probes = 0
        self.seen: Dict[str, bool] = {}

    def exhausted(self) -> bool:
        return self.probes >= self.max_probes

    def fails(self, case: FuzzCase) -> bool:
        key = to_json(case)
        if key in self.seen:
            return self.seen[key]
        try:
            validate_case(case)
        except ValueError:
            self.seen[key] = False
            return False
        if self.exhausted():
            return False
        self.probes += 1
        ok = bool(self.predicate(case))
        self.seen[key] = ok
        return ok


def _with_actions(case: FuzzCase, actions) -> FuzzCase:
    return replace(case, actions=tuple(actions))


def _ddmin_actions(case: FuzzCase, budget: _Budget) -> FuzzCase:
    actions = list(case.actions)
    chunk = max(1, len(actions) // 2)
    while chunk >= 1 and actions:
        removed_any = False
        i = 0
        while i < len(actions):
            candidate = actions[:i] + actions[i + chunk:]
            trial = _with_actions(case, candidate)
            if budget.fails(trial):
                actions = candidate
                removed_any = True
            else:
                i += chunk
            if budget.exhausted():
                return _with_actions(case, actions)
        if chunk == 1 and not removed_any:
            break
        if not removed_any:
            chunk //= 2
    return _with_actions(case, actions)


def _merge_windows(case: FuzzCase, budget: _Budget) -> FuzzCase:
    for kind in _WINDOW_KINDS:
        group = [
            (i, a) for i, a in enumerate(case.actions) if a["kind"] == kind
        ]
        if len(group) < 2:
            continue
        (i, a), (j, b) = group[0], group[1]
        a_end = a["at"] + a["duration"]
        b_end = b["at"] + b["duration"]
        if b["at"] > a_end or a["at"] > b_end:
            continue
        start = min(a["at"], b["at"])
        end = min(max(a_end, b_end), case.duration)
        if end <= start:
            continue
        merged = dict(a)
        merged["at"] = round(start, 1)
        merged["duration"] = round(end - start, 1)
        actions = [
            act for k, act in enumerate(case.actions) if k not in (i, j)
        ]
        actions.insert(min(i, j), merged)
        trial = _with_actions(case, actions)
        if budget.fails(trial):
            return trial
    return case


def _drop_structure(case: FuzzCase, budget: _Budget) -> FuzzCase:
    if case.workload is not None:
        trial = replace(case, workload=None)
        if budget.fails(trial):
            case = trial
    while case.r > R_MIN:
        trial = replace(case, r=case.r - 1)
        if not budget.fails(trial):
            break
        case = trial
    while case.duration / 2.0 >= DURATION_MIN:
        half = round(case.duration / 2.0, 1)
        kept = tuple(a for a in case.actions if a["at"] <= half)
        trial = replace(case, duration=half, actions=kept)
        if not budget.fails(trial):
            break
        case = trial
    return case


def _weaken_fields(case: FuzzCase, budget: _Budget) -> FuzzCase:
    for idx, action in enumerate(case.actions):
        for name, gene in ACTIONS[action["kind"]][1].items():
            if gene.mildest is None:
                continue
            weak = dict(action, **{name: gene.weakest(action[name])})
            if weak == action:
                continue
            actions = case.actions[:idx] + (weak,) + case.actions[idx + 1:]
            trial = _with_actions(case, actions)
            if budget.fails(trial):
                case, action = trial, weak
    return case


def shrink_case(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_probes: int = 160,
) -> ShrinkResult:
    """Shrink ``case`` to a smaller input ``still_fails`` still accepts.

    The input case itself is assumed failing and is never re-probed;
    if no smaller candidate fails, it is returned unchanged."""
    budget = _Budget(still_fails, max_probes)
    budget.seen[to_json(case)] = True
    current = case
    while not budget.exhausted():
        before = _size(current)
        current = _ddmin_actions(current, budget)
        current = _merge_windows(current, budget)
        current = _drop_structure(current, budget)
        current = _weaken_fields(current, budget)
        if _size(current) >= before:
            break
    return ShrinkResult(
        case=current,
        probes=budget.probes,
        improved=_size(current) < _size(case),
    )
