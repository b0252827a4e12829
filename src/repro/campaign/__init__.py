"""`repro.campaign` — parallel, resumable experiment-campaign orchestration.

The paper's headline results are *sweeps* — Figure 3's r/topology grid,
the PVE_EXPIRATION ablation, the churn matrix — and a credible
reproduction needs many-configuration, multi-seed campaigns rather than
one serial replay.  This package provides the orchestration layer:

* :mod:`repro.campaign.spec` — declarative :class:`CampaignSpec`
  (parameter grid expanded into content-hashed task keys);
* :mod:`repro.campaign.tasks` — the registry of pure, picklable task
  entry points workers execute;
* :mod:`repro.campaign.store` — crash-safe JSONL run store (atomic
  appends, ``--resume`` skips completed keys);
* :mod:`repro.campaign.runner` — multiprocessing worker pool with
  per-task timeouts, retry-with-backoff on worker crash and graceful
  SIGINT draining;
* :mod:`repro.campaign.aggregate` — mean/std/CI across seeds, routed
  into the existing :mod:`repro.experiments.export` writers;
* :mod:`repro.campaign.builtin` — the named campaigns behind
  ``jxta-repro sweep`` (fig3, ablation, churn, all, ...).
"""

from repro.campaign.aggregate import (
    AggregateRow,
    SeriesAggregate,
    aggregate_records,
    render_aggregate_table,
    write_aggregates,
)
from repro.campaign.builtin import CAMPAIGNS, build_campaign
from repro.campaign.runner import CampaignRunner, RunnerOptions
from repro.campaign.spec import CampaignSpec, TaskSpec, canonical_json, task_key
from repro.campaign.store import RunStore

__all__ = [
    "AggregateRow",
    "SeriesAggregate",
    "CAMPAIGNS",
    "CampaignRunner",
    "CampaignSpec",
    "RunStore",
    "RunnerOptions",
    "TaskSpec",
    "aggregate_records",
    "build_campaign",
    "canonical_json",
    "render_aggregate_table",
    "task_key",
    "write_aggregates",
]
