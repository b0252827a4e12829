"""The paper's findings as data: one row per claim (docs/TESTING.md).

A claim is a prediction with a band (Kong et al., PAPERS.md): the row's
``measure`` reads one number off the results of ``jxta-repro
<experiment>`` (``repro.experiments.cli.run_experiment``) at either
size, and the number must pass the ``band``'s comparisons, e.g.
``">= 5, <= 35"``.  A measure reads every size it needs (a run's
duration, which r values ran) off the results, never off ``SIZES``.
Booleans measure as 1 or 0; a measure that cannot be taken is NaN,
which fails every comparison.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, NamedTuple, Sequence, Tuple

from repro.experiments import table1

_COMPARE = {"==": operator.eq, ">=": operator.ge, "<=": operator.le,
            ">": operator.gt, "<": operator.lt}


class Claim(NamedTuple):
    id: str
    #: where the paper states it (or the section whose question it answers)
    source: str
    experiment: str
    measure: Callable[[Any], float]
    band: str


def in_band(value: float, band: str) -> bool:
    """Whether ``value`` passes every comparison in ``band``."""
    terms = (term.split() for term in band.split(","))
    return all(_COMPARE[op](value, float(bound)) for op, bound in terms)


def evaluate(claim: Claim, results: Any) -> Tuple[float, bool]:
    """(measured value, whether it lies in the band); NaN if the measure raises."""
    try:
        value = float(claim.measure(results))
    except (ArithmeticError, LookupError, TypeError, ValueError):
        value = math.nan
    return value, in_band(value, claim.band)


def _one(rows: Sequence[Any], **fields: Any) -> Any:
    """The row whose fields have the given values."""
    (row,) = [r for r in rows if all(getattr(r, k) == v for k, v in fields.items())]
    return row


def _steps(
    rows: Sequence[Any], field: str, along: str, within: str = "",
    rise: Callable[[float, float], float] = lambda lo, hi: hi - lo,
) -> float:
    """The smallest ``rise(lower, higher)`` of ``field`` between rows
    adjacent in the order of ``along``, separately for each value of
    ``within`` (by default the increase from one row to the next)."""
    groups: dict = {}
    for row in sorted(rows, key=lambda r: getattr(r, along)):
        groups.setdefault(getattr(row, within) if within else None, []).append(row)
    return min(
        rise(getattr(a, field), getattr(b, field))
        for group in groups.values() for a, b in zip(group, group[1:])
    )


def _chain(series: Sequence[Any], r: int) -> Any:
    return _one(series, r=r, topology="chain")


def _chain_vs_tree(series: Sequence[Any]) -> float:
    """The relative plateau gap at the largest r run as both a chain
    and a tree."""
    trees = {s.r: s.plateau() for s in series if s.topology == "tree"}
    r = max(s.r for s in series if s.topology == "chain" and s.r in trees)
    chain, tree = _chain(series, r).plateau(), trees[r]
    return abs(chain - tree) / max(chain, tree)


def _noise_overhead(points: Sequence[Any]) -> float:
    """t(B) − t(A) at the smallest r, where every rendezvous hosts noise."""
    r = min(p.r for p in points)
    a, b = (_one(points, r=r, configuration=c).mean_ms for c in "AB")
    return b - a


def _lcdht_publish(points: Sequence[Any]) -> list:
    return [p.publish_messages for p in points if p.strategy == "lcdht"]


def _total(points: Sequence[Any], strategy: str, r: Callable = max) -> int:
    """Total messages of ``strategy`` at the largest (or smallest) r."""
    return _one(points, strategy=strategy, r=r(p.r for p in points)).total_messages


def _by_session(points: Sequence[Any]) -> list:
    """Churn points from the longest (mildest) session to the shortest."""
    return sorted(points, key=lambda p: -p.mean_session_minutes)


#: what each complex-query kind must return (8 publishers, 4 in range)
_COMPLEX_RESULTS = {"exact": 1, "wildcard": 8, "range": 4}


def _http_ms(points: Sequence[Any], poll_interval: float) -> float:
    return _one(points, transport="http", poll_interval=poll_interval).mean_ms


def _tcp_ms(points: Sequence[Any]) -> float:
    return _one(points, transport="tcp").mean_ms


def _claims(experiment: str, source: str, *rows: tuple):
    """Rows ``(id, measure, band)`` on one experiment."""
    return tuple(Claim(id, source, experiment, *row) for id, *row in rows)


CLAIMS: Tuple[Claim, ...] = (
    # the LC-DHT worked example, exactly
    *_claims(
        "table1", "Table 1, Fig. 2",
        ("table1.peerview-order", lambda t: sum(
            view == sorted(table1.PAPER_RDV_IDS) for view in t.peerviews.values()
        ), "== 6"),
        ("table1.replica-rank", lambda t: t.replica_rank, "== 3"),
        ("table1.replica-peer", lambda t: t.replica_int_id, "== 50"),
        ("table1.tuple-holders",
         lambda t: sorted(t.tuple_holders) == ["rdv-1", "rdv-4"], "== 1"),
        ("table1.lookup-found", lambda t: t.lookup_found, "== 1"),
        ("table1.matches-paper", lambda t: t.matches_paper, "== 1"),
    ),
    # Property (2) holds at r = 10 and breaks from r ≈ 45
    *_claims(
        "fig3-left", "§4.1, Fig. 3 (left)",
        ("fig3l.r10-reaches-max", lambda s: _chain(s, 10).reached_max, "== 1"),
        ("fig3l.r10-holds-max", lambda s: _chain(s, 10).final_sizes.count(9), "== 10"),
        ("fig3l.r45-r50-reach-max",
         lambda s: sum(_chain(s, r).reached_max for r in (45, 50)), "== 2"),
        ("fig3l.property2-fails-r45-r50", lambda s: sum(
            min(_chain(s, r).final_sizes) < r - 1 for r in (45, 50)), ">= 1"),
        ("fig3l.r80-plateau-below-max", lambda s: _chain(s, 80).plateau(), "< 79"),
        ("fig3l.chain-vs-tree", _chain_vs_tree, "< 0.15"),
    ),
    # adds only until PVE_EXPIRATION, then removals too
    *_claims(
        "fig3-right", "§4.1, Fig. 3 (right)",
        ("fig3r.removals-start-at-expiration",
         lambda f: f.first_remove_time / f.pve_expiration, ">= 1, <= 1.25"),
        ("fig3r.both-event-kinds",
         lambda f: min(len(f.add_points), len(f.remove_points)), ">= 1"),
        ("fig3r.near-complete-discovery",
         lambda f: f.max_possible - f.distinct_discovered, "<= 2"),
    ),
    # a PVE_EXPIRATION above the run length restores Property (2)
    *_claims(
        "fig4-left", "§4.1, Fig. 4 (left)",
        ("fig4l.tuned-reaches-max", lambda f: f.tuned_series.max(), ">= 49"),
        ("fig4l.tuned-holds-max", lambda f: f.tuned_holds_max(), "== 1"),
        ("fig4l.t1", lambda f: f.t1_minutes() or math.nan, ">= 5, <= 35"),
        ("fig4l.default-peak", lambda f: f.default_series.max(), ">= 45"),
        ("fig4l.default-decays", lambda f: f.default_decays(), "== 1"),
    ),
    # the flat O(1) lookup and the noise overhead
    *_claims(
        "fig4-right", "§4.2, Fig. 4 (right)",
        ("fig4r.all-succeed", lambda ps: min(p.success for p in ps), "== 1"),
        # the max over every r, the walk regime included, not the flat one alone
        ("fig4r.flat-lookup-ms",
         lambda ps: max(p.mean_ms for p in ps if p.configuration == "A"), "< 60"),
        ("fig4r.noise-overhead", _noise_overhead, "> 0"),
    ),
    # freshness against bandwidth
    *_claims(
        "ablation", "§4.1",
        ("ablation.interval-costs-bandwidth", lambda ps: _steps(
            ps, "bandwidth_bps_per_rdv", "peerview_interval", "pve_expiration",
            rise=operator.truediv), "> 1.5"),
        ("ablation.expiration-buys-freshness", lambda ps: _steps(
            ps, "mean_l", "pve_expiration", "peerview_interval"), ">= 0"),
    ),
    # O(1) LC-DHT publication against the baselines
    *_claims(
        "baselines", "§2, §3.3",
        ("baselines.all-succeed", lambda ps: min(p.success for p in ps), "== 1"),
        ("baselines.lcdht-publish-small", lambda ps: max(_lcdht_publish(ps)), "<= 6"),
        ("baselines.lcdht-publish-flat",
         lambda ps: max(_lcdht_publish(ps)) - min(_lcdht_publish(ps)), "<= 2"),
        ("baselines.flood-publish-cheapest", lambda ps: max(
            p.publish_messages - _one(ps, strategy="lcdht", r=p.r).publish_messages
            for p in ps if p.strategy == "flood"
        ), "<= 0"),
        ("baselines.chord-log-hops", lambda ps: max(
            math.nan if p.lookup_hops is None else p.lookup_hops - math.log2(p.r)
            for p in ps if p.strategy == "chord"
        ), "<= 1"),
        ("baselines.lcdht-upkeep-grows",
         lambda ps: _total(ps, "lcdht") / _total(ps, "lcdht", min), "> 1"),
        ("baselines.chord-upkeep-lower",
         lambda ps: _total(ps, "chord") / _total(ps, "lcdht"), "< 1"),
    ),
    # the calibrated constants (DESIGN §5b) do what they are for
    *_claims(
        "calibration", "§3.2",
        ("calibration.referrals-raise-peak",
         lambda ps: _steps(ps, "peak", "referral_count", "random_probe_count"), ">= 0"),
        ("calibration.probes-sustain-plateau",
         lambda ps: _steps(ps, "plateau", "random_probe_count", "referral_count"),
         ">= 0"),
        ("calibration.probes-cost-bandwidth",
         lambda ps: _steps(ps, "kbps_per_rdv", "random_probe_count", "referral_count"),
         "> 0"),
    ),
    # future work: volatility
    *_claims(
        "churn", "§5",
        ("churn.mild-success", lambda ps: _by_session(ps)[0].success, ">= 0.6"),
        ("churn.kills-grow", lambda ps: _steps(
            ps, "kills", "mean_session_minutes", rise=operator.sub), "> 0"),
        ("churn.success-degrades",
         lambda ps: _by_session(ps)[-1].success - _by_session(ps)[0].success, "< 0"),
    ),
    # future work: range queries
    *_claims(
        "complex-queries", "§5",
        ("complex.correct-results", lambda ps: sum(
            p.results_found == _COMPLEX_RESULTS[p.kind] for p in ps
        ) / len(ps), "== 1"),
        ("complex.patterns-walk", lambda ps: min(
            p.walk_steps - _one(ps, r=p.r, kind="exact").walk_steps
            for p in ps if p.kind != "exact"
        ), "> 0"),
        ("complex.walk-grows-with-r", lambda ps: _steps(
            [p for p in ps if p.kind == "range"], "walk_steps", "r"), "> 0"),
    ),
    # why the paper ran on TCP
    *_claims(
        "transport", "§4, Fig. 1",
        ("transport.all-succeed", lambda ps: min(p.success for p in ps), "== 1"),
        ("transport.tcp-ms", _tcp_ms, "< 60"),
        ("transport.http-penalty", lambda ps: _http_ms(ps, 0.5) - _tcp_ms(ps), "> 100"),
        ("transport.penalty-scales", lambda ps: _steps(
            [p for p in ps if p.transport == "http"], "mean_ms", "poll_interval"
        ), "> 0"),
        ("transport.http-default-poll", lambda ps: _http_ms(ps, 2.0), "> 500"),
    ),
)
