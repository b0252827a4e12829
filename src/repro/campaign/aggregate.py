"""Multi-seed aggregation: mean/std/CI per metric across seeds.

Completed task records are grouped by their parameters *minus the
seed*; every numeric scalar in a task result becomes an
:class:`AggregateRow` (mean, sample std, 95% CI half-width across the
group's seeds), and every numeric list becomes a
:class:`SeriesAggregate` (element-wise mean/std — e.g. the l(t) curves
of a fig3 group averaged across seeds).

Output is routed through the existing :mod:`repro.experiments.export`
writers: the scalar table goes through :func:`save_results` (the flat
dataclass-row CSV layout), series go through
:func:`repro.metrics.export.series_to_csv`, plus one canonical-JSON
dump.  All iteration is sorted (groups, metrics, seeds), so the same
set of task results always produces byte-identical aggregate files —
the property the ``--jobs 1`` vs ``--jobs N`` and kill/resume CI
checks assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.campaign.spec import canonical_json
from repro.experiments.export import HEAVY_FIELDS
from repro.metrics.series import elementwise_mean_std

#: result/row fields never treated as metrics: the exporter's heavy
#: fields plus run bookkeeping
NON_METRIC_FIELDS = HEAVY_FIELDS | {"seed", "files", "full", "rendered_chars"}

#: z for a two-sided 95% confidence interval
Z95 = 1.959963984540054


@dataclass
class AggregateRow:
    """One (group, metric) cell of the cross-seed summary table."""

    campaign: str
    group: str
    metric: str
    n: int
    mean: float
    std: float
    ci95: float


@dataclass
class SeriesAggregate:
    """Element-wise cross-seed aggregate of one list-valued metric."""

    campaign: str
    group: str
    metric: str
    n: int
    xs: List[float]
    mean: List[float]
    std: List[float]


def mean_std_ci(values: Sequence[float]) -> Tuple[float, float, float]:
    """Mean, sample std (ddof=1; 0 for n=1) and 95% CI half-width."""
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    return mean, std, Z95 * std / math.sqrt(n)


def _group_identity(params: Dict[str, Any]) -> Tuple[str, str]:
    """(sort key, human label) of a task's parameters minus the seed."""
    identity = {k: v for k, v in params.items() if k != "seed"}
    label = ",".join(
        f"{k}={identity[k]}"
        for k in sorted(identity)
        if isinstance(identity[k], (str, int, float, bool))
    )
    return canonical_json(identity), label or "all"


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, bool)) and not isinstance(value, complex)


def _is_number_list(value: Any) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(v, (int, float)) for v in value)
    )


def aggregate_records(
    records: Sequence[Dict[str, Any]],
    campaign: str = "",
) -> Tuple[List[AggregateRow], List[SeriesAggregate]]:
    """Aggregate completed task records (``status == "ok"``) across
    seeds.  ``series_times`` is treated as the x-axis of its group's
    series metrics rather than a metric itself."""
    groups: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.get("status", "ok") != "ok":
            continue
        sort_key, label = _group_identity(record.get("params", {}))
        bucket = groups.setdefault(
            sort_key, {"label": label, "members": []}
        )
        bucket["members"].append(record)

    rows: List[AggregateRow] = []
    series: List[SeriesAggregate] = []
    for sort_key in sorted(groups):
        bucket = groups[sort_key]
        # any fixed order makes float summation reproducible; the
        # content key is total and already encodes the seed
        members = sorted(bucket["members"], key=lambda r: r["key"])
        results = [m["result"] for m in members]
        metrics = sorted(results[0]) if results else []
        xs = None
        if "series_times" in results[0] and _is_number_list(
            results[0]["series_times"]
        ):
            xs = results[0]["series_times"]
        for metric in metrics:
            if metric in NON_METRIC_FIELDS or metric == "series_times":
                continue
            values = [res.get(metric) for res in results]
            if all(_is_number(v) for v in values):
                floats = [float(v) for v in values]
                mean, std, ci = mean_std_ci(floats)
                rows.append(
                    AggregateRow(
                        campaign=campaign,
                        group=bucket["label"],
                        metric=metric,
                        n=len(floats),
                        mean=mean,
                        std=std,
                        ci95=ci,
                    )
                )
            elif all(_is_number_list(v) for v in values):
                try:
                    means, stds = elementwise_mean_std(values)
                except ValueError:
                    continue  # ragged across seeds — nothing to align
                series.append(
                    SeriesAggregate(
                        campaign=campaign,
                        group=bucket["label"],
                        metric=metric,
                        n=len(values),
                        xs=list(xs) if xs is not None else
                        [float(i) for i in range(len(means))],
                        mean=means,
                        std=stds,
                    )
                )
    return rows, series


def write_aggregates(
    campaign: str,
    records: Sequence[Dict[str, Any]],
    out_dir: Path,
) -> List[Path]:
    """Write the cross-seed aggregates under ``out_dir`` via the
    existing exporters.  Returns the files written."""
    from repro.experiments.export import save_results
    from repro.metrics.export import series_to_csv

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, series = aggregate_records(records, campaign=campaign)
    written: List[Path] = []
    if rows:
        written.extend(save_results(f"{campaign}-aggregate", rows, out_dir))

    by_metric: Dict[str, List[SeriesAggregate]] = {}
    for agg in series:
        by_metric.setdefault(agg.metric, []).append(agg)
    for metric in sorted(by_metric):
        aggs = sorted(by_metric[metric], key=lambda a: a.group)
        xs = aggs[0].xs
        columns: Dict[str, Sequence[float]] = {}
        for agg in aggs:
            columns[f"{agg.group}:mean"] = agg.mean
            columns[f"{agg.group}:std"] = agg.std
        path = out_dir / f"{campaign}-{metric}.csv"
        series_to_csv("x", xs, columns, path)
        written.append(path)

    json_path = out_dir / f"{campaign}-aggregate.json"
    payload = {
        "campaign": campaign,
        "rows": [row.__dict__ for row in rows],
        "series": [agg.__dict__ for agg in series],
    }
    json_path.write_text(canonical_json(payload) + "\n")
    written.append(json_path)
    return written


def render_aggregate_table(rows: Sequence[AggregateRow]) -> str:
    """Cross-seed spread as the repo's standard ASCII table."""
    from repro.metrics import render_table

    body = [
        [
            row.group,
            row.metric,
            row.n,
            f"{row.mean:.4g}",
            f"{row.std:.4g}",
            f"±{row.ci95:.4g}",
        ]
        for row in rows
    ]
    return render_table(
        ["group", "metric", "n", "mean", "std", "ci95"], body
    )
