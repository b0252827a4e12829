"""Persist experiment results as CSV/JSON for external plotting.

Every experiment's ``run`` returns structured results (through
``cli.run_experiment``); the CLI's ``--out DIR`` option routes them
here.  Known result shapes get purpose-built CSV layouts (the columns a
gnuplot/pandas user would want); anything else falls back to a generic
JSON dump of the dataclass fields.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, List

from repro.metrics.export import series_to_csv
from repro.metrics.series import sample_at
from repro.sim import MINUTES

#: result-row fields too heavy for a CSV cell (series, logs, live
#: objects); the campaign aggregator never reads them as metrics either
HEAVY_FIELDS = frozenset(
    {"samples", "log", "overlay", "sim", "series", "default_series",
     "tuned_series", "add_points", "remove_points", "peerviews",
     "bindings", "final_sizes"}
)


def _csv_cell(value: Any) -> Any:
    # nested dataclasses (e.g. a fault Scenario) reduce to their name;
    # dicts to a compact JSON string
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return getattr(value, "name", str(value))
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value


def _dataclass_rows_to_csv(rows: List[Any], path: Path) -> None:
    import csv

    fields = [
        f.name for f in dataclasses.fields(rows[0])
        if f.name not in HEAVY_FIELDS
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(getattr(row, name)) for name in fields])


def save_results(name: str, results: Any, out_dir: Path) -> List[Path]:
    """Write ``results`` (whatever the experiment returned) under
    ``out_dir``; returns the files written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    # list of curve objects exposing .series (fig3-left)
    if isinstance(results, list) and results and hasattr(results[0], "series"):
        duration = max(res.duration for res in results)
        step = 2 * MINUTES
        xs = [i * step for i in range(int(duration // step) + 1)]
        columns = {
            res.label: res.series.sampled(xs) for res in results
        }
        path = out_dir / f"{name}.csv"
        series_to_csv("t_seconds", xs, columns, path)
        written.append(path)
        return written

    # single object with default/tuned series (fig4-left)
    if hasattr(results, "default_series") and hasattr(results, "tuned_series"):
        xs, default_vals = sample_at(
            results.default_series, 0.0, results.duration, 2 * MINUTES
        )
        _, tuned_vals = sample_at(
            results.tuned_series, 0.0, results.duration, 2 * MINUTES
        )
        path = out_dir / f"{name}.csv"
        series_to_csv(
            "t_seconds", xs,
            {"default": default_vals, "tuned": tuned_vals}, path,
        )
        written.append(path)
        return written

    # event-scatter result (fig3-right)
    if hasattr(results, "add_points") and hasattr(results, "remove_points"):
        import csv

        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "rendezvous_number", "event"])
            for t, n in results.add_points:
                writer.writerow([t, n, "add"])
            for t, n in results.remove_points:
                writer.writerow([t, n, "remove"])
        written.append(path)
        return written

    # list of flat dataclass points (fig4-right, baselines, ablation, ...)
    if (
        isinstance(results, list)
        and results
        and dataclasses.is_dataclass(results[0])
    ):
        path = out_dir / f"{name}.csv"
        _dataclass_rows_to_csv(results, path)
        written.append(path)
        return written

    # single dataclass or anything else: JSON best-effort
    path = out_dir / f"{name}.json"

    def default(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {
                k: v for k, v in dataclasses.asdict(obj).items()
                if isinstance(v, (int, float, str, bool, list, dict, type(None)))
            }
        return str(obj)

    with open(path, "w") as fh:
        json.dump(results, fh, default=default, indent=2)
    written.append(path)
    return written
