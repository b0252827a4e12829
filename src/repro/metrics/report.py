"""Plain-text renderers for experiment outputs.

Every experiment prints its table/series through these helpers so the
benchmark harness output lines up with the rows/series the paper
reports.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

# the one table renderer lives with the metrics summaries, because
# repro.obs may not import this package (it reads what obs records)
from repro.obs.registry import render_table


def render_series(
    x_label: str,
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    float_format: str = "{:.1f}",
) -> str:
    """Columnar rendering of one or more series over a shared x axis."""
    headers = [x_label] + list(series.keys())
    rows: List[List[str]] = []
    for i, x in enumerate(xs):
        row = [float_format.format(x)]
        for values in series.values():
            row.append(
                float_format.format(values[i]) if i < len(values) else ""
            )
        rows.append(row)
    return render_table(headers, rows)
