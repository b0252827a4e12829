"""Pure task entry points executed by campaign workers.

A *task* is a top-level function ``params_dict -> json_dict``: fully
deterministic given its parameters (every task seeds its own
:class:`~repro.sim.Simulator`), picklable by name across worker
processes, and returning only JSON-serializable data so the run store
can persist it verbatim.  The byte-identical ``--jobs 1`` vs
``--jobs N`` guarantee rests on these properties.

Built-in task types:

``peerview``
    One §4.1 overlay run (fig3 / ablation grids): l(t) sampled on a
    regular grid plus the summary statistics the paper discusses.
``churn``
    One discovery-under-volatility point (the churn matrix).
``experiment``
    One whole experiment module from :data:`repro.experiments.cli
    .EXPERIMENTS` — the unit behind ``jxta-repro sweep all``, the
    ``make experiments[-full]`` targets and ``jxta-repro <experiment>
    --seeds N``.  Returns every numeric field of its result rows as
    ``<row>.<field>`` and each claim row's value as ``claim.<id>``; stdout
    and CSV/JSON artefacts are written under ``params["out"]``.
``load``
    One :mod:`repro.workload` run (the rate × skew × r grid of the
    ``load`` campaign): open-loop clients against an r-rendezvous
    overlay, reporting the query SLO (p50/p95/p99, timeout rate) plus
    the canonical trace digest.
``fuzz``
    One fixed-size coverage-guided fuzzing batch (:mod:`repro.fuzz`).
    Batches never share corpus state, so the campaign's worker split
    cannot affect results; the campaign *finalizer* (``FINALIZERS``) merges
    the batch corpora deterministically into one JSONL + report.
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.sim import MINUTES

TaskFn = Callable[[Dict[str, Any]], Dict[str, Any]]

# --------------------------------------------------------------------------
# warm-start context (out of band, so params — and task keys — never change)
# --------------------------------------------------------------------------

#: the process's checkpoint store for warm-started bootstraps, or None
#: (cold).  Set by the campaign runner — in the parent for ``--jobs 1``,
#: at worker startup for the pool — NOT passed through task params:
#: a task's content-hashed key must not depend on cache location.
_WARM_STORE: Optional[Any] = None


def set_warm_store(store: Optional[Any]) -> None:
    """Install (or clear, with None) this process's checkpoint store."""
    global _WARM_STORE
    _WARM_STORE = store


def warm_store() -> Optional[Any]:
    return _WARM_STORE


# --------------------------------------------------------------------------
# built-in task types
# --------------------------------------------------------------------------


def peerview_point(params: Dict[str, Any]) -> Dict[str, Any]:
    """One peerview overlay run; covers the fig3 grid (r × topology)
    and the ablation grid (PVE_EXPIRATION × PEERVIEW_INTERVAL)."""
    from repro.config import PlatformConfig
    from repro.experiments.common import run_peerview_overlay
    from repro.metrics.series import peerview_size_series, sample_at

    r = int(params["r"])
    topology = params.get("topology", "chain")
    duration = float(params.get("duration", 60 * MINUTES))
    seed = int(params.get("seed", 1))
    sample_step = float(params.get("sample_step", 2 * MINUTES))

    overrides = {
        name: params[name]
        for name in ("pve_expiration", "peerview_interval", "happy_size")
        if name in params
    }
    config = PlatformConfig().with_overrides(**overrides) if overrides else None

    result = run_peerview_overlay(
        r=r, topology=topology, duration=duration, seed=seed,
        config=config,
    )
    series = peerview_size_series(result.log, "rdv-0")
    times, values = sample_at(series, 0.0, duration, sample_step)
    return {
        "series_times": times,
        "series_values": values,
        "peak_l": series.max(),
        "peak_time_s": series.time_of_max(),
        "reached_max": bool(series.max() >= r - 1),
        "plateau_l": series.plateau(duration),
        **result.summary(),
    }


def _churn_overlay(params: Dict[str, Any]):
    """The (r, seed) a ``churn`` task's params describe (shared by the
    task body and its bootstrap-spec function)."""
    return int(params.get("r", 16)), int(params.get("seed", 1))


def churn_point(params: Dict[str, Any]) -> Dict[str, Any]:
    """One discovery-under-churn measurement (§5 volatility study)."""
    import dataclasses

    from repro.experiments.churn_exp import run_point

    r, seed = _churn_overlay(params)
    point = run_point(
        r=r,
        mean_session=float(params["mean_session"]),
        mean_downtime=float(params.get("mean_downtime", 5 * MINUTES)),
        queries=int(params.get("queries", 60)),
        seed=seed,
        checkpoint_store=warm_store(),
    )
    return dataclasses.asdict(point)


def _churn_bootstrap_spec(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.churn_exp import bootstrap_spec

    r, seed = _churn_overlay(params)
    return bootstrap_spec(r=r, seed=seed)


_LOAD_SPEC_FIELDS = (
    ("duration", float), ("warmup", float), ("queriers", int),
    ("publishers", int), ("timeout", float),
)
_LOAD_PARAMS = frozenset(
    {"rate", "skew", "catalog_size", "r", "seed"}
    | {name for name, _ in _LOAD_SPEC_FIELDS}
)


def _load_workload_spec(params: Dict[str, Any]):
    """The (WorkloadSpec, r, seed) a ``load`` task's params describe:
    the experiment's CI-sized :func:`~repro.experiments.load_exp.ci_spec`
    with the given params overriding it (shared by the task body and its
    bootstrap-spec function).  A param outside :data:`_LOAD_PARAMS` is a
    ``ValueError``, not a silent default."""
    from repro.experiments.load_exp import CI_R, ci_spec

    unknown = sorted(set(params) - _LOAD_PARAMS)
    if unknown:
        raise ValueError(
            f"unknown load task param(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(_LOAD_PARAMS))})"
        )
    base = ci_spec()
    skew = float(params.get("skew", base.catalog["skew"]))
    spec = ci_spec(
        catalog={
            "popularity": "zipf" if skew > 0 else "uniform",
            "size": int(params.get("catalog_size", base.catalog["size"])),
            "skew": skew,
        },
        arrivals={
            "kind": "poisson",
            "rate": float(params.get("rate", base.arrivals["rate"])),
        },
        **{
            name: kind(params[name])
            for name, kind in _LOAD_SPEC_FIELDS
            if name in params
        },
    )
    return spec, int(params.get("r", CI_R)), int(params.get("seed", 1))


def load_point(params: Dict[str, Any]) -> Dict[str, Any]:
    """One workload run on one overlay configuration.  Returns the
    query-operation SLO as flat scalars (what the cross-seed aggregator
    consumes) plus the trace digest (a string, skipped by aggregation
    but persisted for byte-identity checks)."""
    from repro.experiments.load_exp import run_load

    spec, r, seed = _load_workload_spec(params)
    run = run_load(
        spec, r=r, seed=seed, record=True, checkpoint_store=warm_store()
    )
    snapshot = run.snapshot()
    query = snapshot.get("load.query", {})
    return {
        "r": r,
        "rate": spec.arrivals["rate"],
        "skew": spec.catalog["skew"],
        "requests": run.slo.total_requests(),
        "query_requests": query.get("requests", 0),
        "qps": query.get("requests", 0) / spec.duration,
        "mean_ms": query.get("mean_ms", 0.0),
        "p50_ms": query.get("p50_ms", 0.0),
        "p95_ms": query.get("p95_ms", 0.0),
        "p99_ms": query.get("p99_ms", 0.0),
        "timeout_rate": query.get("timeout_rate", 0.0),
        "failure_rate": query.get("failure_rate", 0.0),
        "trace_ops": len(run.recorder),
        "trace_digest": run.digest(),
    }


def _load_bootstrap_spec(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.load_exp import bootstrap_spec

    spec, r, seed = _load_workload_spec(params)
    return bootstrap_spec(spec, r, seed=seed)


def _row_metrics(results: Any) -> Dict[str, float]:
    """Every numeric field of an experiment's result rows (one dataclass
    or a list of them) as ``<row>.<field>``.  A row is named by its
    ``label``, else by its index and string fields; the aggregator's
    non-metric fields are skipped."""
    import dataclasses

    from repro.campaign.aggregate import NON_METRIC_FIELDS

    metrics: Dict[str, float] = {}
    for i, row in enumerate(results if isinstance(results, list) else [results]):
        values = {
            f.name: getattr(row, f.name) for f in dataclasses.fields(row)
            if f.name not in NON_METRIC_FIELDS
        }
        label = getattr(row, "label", None)
        if not isinstance(label, str):
            tags = [v for v in values.values() if isinstance(v, str)]
            label = "-".join([f"{i:02d}"] + tags)
        metrics.update(
            (f"{label}.{name}", float(v)) for name, v in values.items()
            if isinstance(v, (int, float))
        )
    return metrics


def experiment_task(params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one whole experiment module; capture its rendered output,
    route its structured results through the existing exporter and
    return their numeric fields (what ``--seeds N`` aggregates)."""
    from repro.analysis.claims import CLAIMS, evaluate
    from repro.experiments.cli import run_experiment
    from repro.experiments.export import save_results

    name = params["name"]
    full = bool(params.get("full", False))
    seed = int(params.get("seed", 1))
    out = params.get("out")

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        results = run_experiment(
            name, "full" if full else "ci", seed, warm_store()
        )

    written = []
    if out is not None:
        out_dir = Path(out)
        if seed != params.get("first_seed", seed):
            out_dir = out_dir / f"seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(buffer.getvalue())
        written.append(str(out_dir / f"{name}.txt"))
        written.extend(str(p) for p in save_results(name, results, out_dir))
    return {
        "experiment": name,
        "full": full,
        "seed": seed,
        "rendered_chars": len(buffer.getvalue()),
        "files": written,
        **_row_metrics(results),
        **{f"claim.{claim.id}": evaluate(claim, results)[0]
           for claim in CLAIMS if claim.experiment == name},
    }


def fuzz_batch(params: Dict[str, Any]) -> Dict[str, Any]:
    """One coverage-guided fuzzing batch (see :mod:`repro.fuzz`)."""
    from repro.fuzz.engine import run_batch

    return run_batch(params)


def fuzz_finalize(records: list, out_dir: Path) -> list:
    """Merge the batch corpora into <out>/fuzz-corpus.jsonl plus a
    campaign-level report, and surface the merged digest — the single
    string that must match across reruns and worker counts."""
    from repro.fuzz.engine import merge_reports, report_from_dict, write_report

    merged = merge_reports(
        [report_from_dict(rec["result"]) for rec in records],
        # every batch of one campaign shares its master seed
        seed=records[0]["params"]["master_seed"] if records else 0,
    )
    paths = write_report(merged, out_dir)
    lines = [
        f"# fuzz: {merged.executed} genome(s), "
        f"{len(merged.coverage)} coverage key(s), "
        f"{len(merged.failures)} failure(s)",
        *(f"# wrote {path}" for path in paths),
        f"# fuzz digest: {merged.digest()}",
    ]
    for entry in merged.failures:
        lines.insert(
            1, f"#   {entry.signature}: {len(entry.case.actions)} action(s)"
        )
    return lines


def claims_finalize(records: list, out_dir: Path) -> list:
    """Write <out>/claims.csv: per claim row on the experiments that ran, its
    band, size, value per seed (NaN if that task failed) and k/n in band."""
    from repro.analysis.claims import CLAIMS, in_band

    results = {(r["params"]["name"], r["params"]["seed"]): r["result"] for r in records}
    seeds = sorted({seed for _, seed in results})
    size = "full" if any(r["params"]["full"] for r in records) else "ci"
    table = [["claim", "band", "size", *(f"seed{s}" for s in seeds), "passed"]]
    lines = []
    for claim in (c for c in CLAIMS if any(c.experiment == n for n, _ in results)):
        values = [results.get((claim.experiment, s), {}).get(f"claim.{claim.id}",
                  float("nan")) for s in seeds]
        passed = f"{sum(in_band(v, claim.band) for v in values)}/{len(seeds)}"
        table.append([claim.id, claim.band, size, *values, passed])
        lines.append(f"{claim.id:38s} {claim.band:14s} {size:4s} "
                     + " ".join(f"{v:9.4g}" for v in values) + f"  {passed} passed")
    with (out_dir / "claims.csv").open("w", newline="") as handle:
        csv.writer(handle).writerows(table)
    return lines + [f"# wrote {out_dir / 'claims.csv'}"]


# --------------------------------------------------------------------------
# the registries
# --------------------------------------------------------------------------

#: ``task type -> task function``.  Tests add throwaway task types to it
#: the same way (``monkeypatch.setitem``).
TASKS: Dict[str, TaskFn] = {
    "peerview": peerview_point,
    "churn": churn_point,
    "load": load_point,
    "experiment": experiment_task,
    "fuzz": fuzz_batch,
}

#: ``task type -> (params -> bootstrap spec dict)`` for task types whose
#: experiment has a warm-startable bootstrap.  The runner uses it to
#: group tasks sharing a bootstrap prefix (one build, many restores);
#: the spec function reads the params through the same helper as the
#: task body, so the two cannot disagree on a default.
BOOTSTRAP_SPECS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "churn": _churn_bootstrap_spec,
    "load": _load_bootstrap_spec,
}

#: ``campaign name -> (completed records, out_dir) -> report lines``.
#: The sweep CLI calls a campaign's finalizer after aggregation, for
#: campaigns whose cross-task result is not a numeric aggregate.
FINALIZERS: Dict[str, Callable[[list, Path], list]] = {"fuzz": fuzz_finalize,
                                                        "all": claims_finalize}
