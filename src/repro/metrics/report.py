"""Plain-text renderers for experiment outputs.

Every experiment prints its table/series through these helpers so the
benchmark harness output lines up with the rows/series the paper
reports.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(cells):
        lines.append(
            "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


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
