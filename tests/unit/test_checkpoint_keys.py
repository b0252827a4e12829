"""Every bootstrap's checkpoint key, pinned.

A key is the store address of a warmed overlay: if one moves, every
cache filled before the move silently misses and rebuilds.
"""

import pytest

from repro.campaign.tasks import BOOTSTRAP_SPECS
from repro.experiments import churn_exp, fig4_right, load_exp
from repro.sim import MINUTES
from repro.snapshot import checkpoint_key

CHURN_R16_SEED2 = (
    "b6e99eabc1f81a71aa10e6bcd052d07fac75731635830485844a1fc63ea4e29c"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False),
        "072351dc5c9a474e7f8a864f5dce680d3c88f30f5a5631b6ad253ebeec5ca235",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(20, True, warmup=60 * MINUTES),
        "ba58096cbb72aa2d4c5cfcc213f2fbd33c009dcb354a43bd77337762c61a5335",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(load_exp.ci_spec(), 8, seed=3),
        "15575b299cb4e36ffee8d8cf2f51ed3bd15a2d28050b589a09f6f512a9c3c401",
    ),
}

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "7bc4c653354f181f0d2dfb08c7cd6e03e2510a1baa367773388c55a2f556438b",
    ),
}


@pytest.mark.parametrize("name", sorted(KEYS))
def test_experiment_key_is_pinned(name):
    spec, key = KEYS[name]
    assert checkpoint_key(spec()) == key


@pytest.mark.parametrize("task_type", sorted(CAMPAIGN_KEYS))
def test_campaign_group_key_is_pinned(task_type):
    params, key = CAMPAIGN_KEYS[task_type]
    assert checkpoint_key(BOOTSTRAP_SPECS[task_type](params)) == key
