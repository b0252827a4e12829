"""Named built-in campaigns behind ``jxta-repro sweep``.

Each builder returns a :class:`CampaignSpec` reproducing one of the
paper's sweeps as a grid of independent tasks:

* ``fig3`` — the Figure 3 r × topology grid (chains 10…580, trees
  160…338 with ``--full``; the CI-sized grid otherwise);
* ``fig3-smoke`` — a uniform small grid used by the CI campaign-smoke
  job (kill/resume + jobs-speedup checks);
* ``ablation`` — the PVE_EXPIRATION × PEERVIEW_INTERVAL grid (§4.1);
* ``churn`` — the discovery-under-volatility session-length matrix;
* ``load`` — the workload grid (arrival rate × popularity skew × r)
  over :mod:`repro.workload` open-loop clients, reporting the query
  SLO per cell;
* ``all`` — every experiment module as one task each (what
  ``make experiments[-full]`` runs).

Every builder takes ``seeds``: the grid gains a seed axis
``base_seed … base_seed+seeds-1`` and the aggregator reports the
cross-seed spread per configuration.  The ``fig3``, ``ablation`` and
``churn`` grids are their experiment modules' ``SIZES``; the CI-sized
``load`` grid takes its warm-up and population from
:func:`~repro.experiments.load_exp.ci_spec`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.campaign.spec import CampaignSpec
from repro.sim import MINUTES


def _seed_axis(seeds: int, base_seed: int):
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    return list(range(base_seed, base_seed + seeds))


def fig3_campaign(
    full: bool = False, seeds: int = 1, base_seed: int = 1,
    out: Optional[str] = None,
) -> CampaignSpec:
    from repro.experiments.fig3_left import SIZES

    size = SIZES["full" if full else "ci"]
    return CampaignSpec(
        name="fig3",
        task_type="peerview",
        grid={
            "config": [{"r": r, "topology": t} for r, t in size["configs"]],
            "seed": _seed_axis(seeds, base_seed),
        },
        base={"duration": size["duration"]},
        description="Figure 3: peerview size l(t) across the r/topology grid",
    )


def fig3_smoke_campaign(
    full: bool = False, seeds: int = 4, base_seed: int = 1,
    out: Optional[str] = None,
) -> CampaignSpec:
    return CampaignSpec(
        name="fig3-smoke",
        task_type="peerview",
        grid={
            "config": [
                {"r": 24, "topology": "chain"},
                {"r": 30, "topology": "chain"},
            ],
            "seed": _seed_axis(seeds, base_seed),
        },
        base={"duration": 60 * MINUTES},
        description="CI-sized fig3 grid: uniform ~1s tasks for the "
        "kill/resume and jobs-speedup smoke checks",
    )


def ablation_campaign(
    full: bool = False, seeds: int = 1, base_seed: int = 1,
    out: Optional[str] = None,
) -> CampaignSpec:
    from repro.experiments.ablation import SIZES

    size = SIZES["full" if full else "ci"]
    return CampaignSpec(
        name="ablation",
        task_type="peerview",
        grid={
            "pve_expiration": list(size["expirations"]),
            "peerview_interval": list(size["intervals"]),
            "seed": _seed_axis(seeds, base_seed),
        },
        base={"r": size["r"], "duration": size["duration"]},
        description="PVE_EXPIRATION x PEERVIEW_INTERVAL freshness/bandwidth "
        "trade-off (§4.1)",
    )


def churn_campaign(
    full: bool = False, seeds: int = 1, base_seed: int = 1,
    out: Optional[str] = None,
) -> CampaignSpec:
    from repro.experiments.churn_exp import SIZES

    size = SIZES["full" if full else "ci"]
    return CampaignSpec(
        name="churn",
        task_type="churn",
        grid={
            "mean_session": list(size["sessions"]),
            "seed": _seed_axis(seeds, base_seed),
        },
        base={"r": size["r"], "queries": size["queries"]},
        description="discovery success/latency under rendezvous volatility",
    )


def load_campaign(
    full: bool = False, seeds: int = 1, base_seed: int = 1,
    out: Optional[str] = None,
) -> CampaignSpec:
    if full:
        grid = {
            "rate": [2.0, 5.0, 10.0],
            "skew": [0.0, 1.0],
            "r": [50, 150],
            "seed": _seed_axis(seeds, base_seed),
        }
        base = {
            "duration": 5 * MINUTES,
            "warmup": 10 * MINUTES,
            "queriers": 20,
            "publishers": 2,
            "catalog_size": 500,
        }
    else:
        from repro.experiments.load_exp import ci_spec

        spec = ci_spec()
        grid = {
            "rate": [1.0, 3.0],
            "skew": [0.0, 1.0],
            "r": [8, 16],
            "seed": _seed_axis(seeds, base_seed),
        }
        base = {
            "duration": 30.0,
            "warmup": spec.warmup,
            "queriers": spec.queriers,
            "publishers": spec.publishers,
            "catalog_size": spec.catalog["size"],
        }
    return CampaignSpec(
        name="load",
        task_type="load",
        grid=grid,
        base=base,
        description="workload SLO grid: arrival rate x popularity skew x "
        "overlay size (repro.workload open-loop clients)",
    )


def fuzz_campaign(
    full: bool = False, seeds: int = 1, base_seed: int = 1,
    out: Optional[str] = None,
) -> CampaignSpec:
    """Coverage-guided fuzzing fanned out as fixed-size batches.

    ``seeds`` is repurposed as extra batches (each batch already runs
    under its own derived seed); the ``fuzz`` finalizer
    merges all batch corpora deterministically after aggregation."""
    batches = (8 if full else 4) * max(1, seeds)
    return CampaignSpec(
        name="fuzz",
        task_type="fuzz",
        grid={"batch": list(range(batches))},
        base={
            "master_seed": base_seed,
            "batch_size": 25 if full else 10,
        },
        description="coverage-guided protocol fuzzing (repro.fuzz): "
        "independent fixed-size batches, corpora merged "
        "order-independently by the campaign finalizer",
    )


def all_experiments_campaign(
    full: bool = False, seeds: int = 1, base_seed: int = 1,
    out: Optional[str] = None, names: Optional[Sequence[str]] = None,
) -> CampaignSpec:
    """Every experiment module as one task per seed; ``names`` narrows
    the grid (``jxta-repro <experiment> --seeds N`` runs one name).
    With ``out`` the first seed writes there and each later seed ``k``
    under ``<out>/seed<k>/``."""
    from repro.experiments.cli import EXPERIMENTS

    base: Dict[str, Any] = {"full": full}
    if out is not None:
        base.update(out=out, first_seed=base_seed)
    return CampaignSpec(
        name="all",
        task_type="experiment",
        grid={
            "name": sorted(names or EXPERIMENTS),
            "seed": _seed_axis(seeds, base_seed),
        },
        base=base,
        description="every paper artefact, one experiment module per task "
        "(the make experiments[-full] unit)",
    )


CAMPAIGNS: Dict[str, Callable[..., CampaignSpec]] = {
    "fig3": fig3_campaign,
    "fig3-smoke": fig3_smoke_campaign,
    "ablation": ablation_campaign,
    "churn": churn_campaign,
    "load": load_campaign,
    "fuzz": fuzz_campaign,
    "all": all_experiments_campaign,
}


def build_campaign(
    name: str,
    full: bool = False,
    seeds: int = 1,
    base_seed: int = 1,
    out: Optional[str] = None,
) -> CampaignSpec:
    try:
        builder = CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r} (known: {sorted(CAMPAIGNS)})"
        ) from None
    return builder(full=full, seeds=seeds, base_seed=base_seed, out=out)
