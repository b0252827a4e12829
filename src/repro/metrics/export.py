"""Export experiment series for external tooling (gnuplot, pandas, ...).

The paper's figures were plotted from flat files; :func:`series_to_csv`
writes sampled series in that form, so downstream users can regenerate
plots without re-running simulations.  The raw event timeline is
exported by :meth:`repro.obs.TimelineTracer.to_jsonl_lines`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Sequence, Union

PathLike = Union[str, Path]


def series_to_csv(
    x_label: str,
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    path: PathLike,
) -> int:
    """Write aligned series columns as CSV (one x column, one column
    per series).  Returns the number of data rows."""
    names = list(series.keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([x_label] + names)
        for i, x in enumerate(xs):
            writer.writerow(
                [x] + [series[name][i] if i < len(series[name]) else "" for name in names]
            )
    return len(xs)
