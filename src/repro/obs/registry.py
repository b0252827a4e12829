"""Per-network metrics registry: counters, gauges, latency histograms.

Every metric is keyed by a ``(protocol, event)`` tuple — e.g.
``("peerview", "probe.sent")`` or ``("endpoint", "send.siteA->siteB")``
— so the hot path is a single dict update.  Snapshots flatten the key
to ``"protocol.event"`` and sort it, which keeps exports deterministic
and campaign records byte-stable.

The snapshot format — flattened, sorted names, written as sorted-key
JSON by :func:`metrics_snapshot_to_json` and summarised as text by
:func:`render_metrics` — is defined in this module alone.

Registries merge: :meth:`MetricsRegistry.merge` folds another registry
in (counters add, gauges take the other's last value, histograms merge
bucket-wise), which is how multi-network experiments and campaign
fan-outs aggregate into one summary.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.histogram import DEFAULT_LATENCY_EDGES_S, Histogram

Key = Tuple[str, str]


class MetricsRegistry:
    """Counters, gauges and histograms keyed by ``(protocol, event)``."""

    __slots__ = ("counters", "gauges", "histograms", "_default_edges")

    def __init__(
        self, default_edges: Sequence[float] = DEFAULT_LATENCY_EDGES_S
    ) -> None:
        self.counters: Dict[Key, int] = {}
        self.gauges: Dict[Key, float] = {}
        self.histograms: Dict[Key, Histogram] = {}
        self._default_edges = tuple(default_edges)

    # -------------------------------------------------------- hot path
    def count(self, protocol: str, event: str, n: int = 1) -> None:
        key = (protocol, event)
        self.counters[key] = self.counters.get(key, 0) + n

    def gauge(self, protocol: str, event: str, value: float) -> None:
        self.gauges[(protocol, event)] = value

    def observe(
        self,
        protocol: str,
        event: str,
        value: float,
        edges: Optional[Sequence[float]] = None,
    ) -> None:
        key = (protocol, event)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram(
                edges if edges is not None else self._default_edges
            )
        hist.observe(value)

    # ------------------------------------------------------------------
    def counter(self, protocol: str, event: str) -> int:
        return self.counters.get((protocol, event), 0)

    def histogram(self, protocol: str, event: str) -> Optional[Histogram]:
        return self.histograms.get((protocol, event))

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        for key, n in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + n
        self.gauges.update(other.gauges)
        for key, hist in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                mine = self.histograms[key] = Histogram(hist.edges)
            mine.merge(hist)

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        out = cls()
        for reg in registries:
            out.merge(reg)
        return out

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Deterministic, JSON-serialisable view of every metric."""
        return {
            "counters": {
                f"{p}.{e}": n for (p, e), n in sorted(self.counters.items())
            },
            "gauges": {
                f"{p}.{e}": v for (p, e), v in sorted(self.gauges.items())
            },
            "histograms": {
                f"{p}.{e}": h.snapshot()
                for (p, e), h in sorted(self.histograms.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


def metrics_snapshot_to_json(snapshot: Dict, path) -> None:
    """Write a :meth:`MetricsRegistry.snapshot` as JSON.

    Snapshots are already sorted; dumping with ``sort_keys`` keeps the
    artefact byte-stable across runs, so metric exports can be diffed
    (and the campaign store stays deterministic)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_table(headers: Sequence[object], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table (every experiment's tables, through
    :mod:`repro.metrics.report`, and the metrics summaries below)."""
    cells = [[str(c) for c in row] for row in [headers, *rows]]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_metrics(snapshot: Dict) -> str:
    """Summary tables for a :meth:`MetricsRegistry.snapshot`.

    One counters table and, when histograms were recorded, a second
    table with their count/mean/min/max — the quick-look view the
    ``--metrics-out`` flag and ``jxta-repro trace`` print; the full
    bucket data lives in the JSON export.
    """
    sections: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        sections.append(
            render_table(
                ["metric", "count"],
                [[name, counters[name]] for name in sorted(counters)],
            )
        )
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows: List[List[object]] = []
        for name in sorted(histograms):
            h = histograms[name]
            count = h["count"]
            mean = h["sum"] / count if count else 0.0
            rows.append(
                [
                    name,
                    count,
                    f"{mean:.6f}",
                    f"{h['min']:.6f}" if h["min"] is not None else "-",
                    f"{h['max']:.6f}" if h["max"] is not None else "-",
                ]
            )
        sections.append(
            render_table(["histogram", "count", "mean", "min", "max"], rows)
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)
