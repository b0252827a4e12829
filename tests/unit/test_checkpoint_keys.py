"""Every bootstrap's checkpoint key, pinned.

A key is the store address of a warmed overlay: if one moves, every
cache filled before the move silently misses and rebuilds.
"""

import pytest

from repro.campaign.tasks import BOOTSTRAP_SPECS
from repro.experiments import churn_exp, fig4_right, load_exp
from repro.fuzz import SEED_CASES
from repro.fuzz import runner as fuzz_runner
from repro.sim import MINUTES
from repro.snapshot import checkpoint_key

CHURN_R16_SEED2 = (
    "51f447e39a25570835b42e3051111e98a409a08f1efab381387608d7548a005c"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False),
        "7a45954b70312c605a5afd6b130d31b684b66a73a21035126fc649ad257d6ee7",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(20, True, warmup=60 * MINUTES),
        "4dc8d1ac4e8bdbbc4649154b6bd39578e92c6e2c5109884a3d92419dfc6aa4fe",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(load_exp.ci_spec(), 8, seed=3),
        "7d79713c35ebd34079406b39950c552521a86289feb8254f3b90e3acedcef9ef",
    ),
}

FUZZ_KEYS = (
    "44c7cf69db94377319b5e65a8f68992fc9409987cbb9ffb6cac88981f592dcb6",
    "dc33984fc7412a849de70c77a00e97fe3e0be6cecb7ddee7cfcb0e56cf08875b",
    "b9f1e3bdfb5abaa1f64792fdc35ac294108f3ca4b740ed47a343032953dc2539",
    "b954e0be073204ff8c1ae267df3c67d2340f4bcf9acc690aabc4b628302bfe5c",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "68e7ebe31455b54373db9d7540e16b7f154b7f27a44cc304ffb04653643c68eb",
    ),
}


@pytest.mark.parametrize("name", sorted(KEYS))
def test_experiment_key_is_pinned(name):
    spec, key = KEYS[name]
    assert checkpoint_key(spec()) == key


@pytest.mark.parametrize("index", range(len(FUZZ_KEYS)))
def test_fuzz_key_is_pinned(index):
    spec = fuzz_runner.bootstrap_spec(SEED_CASES[index], metrics=True)
    assert checkpoint_key(spec) == FUZZ_KEYS[index]


@pytest.mark.parametrize("task_type", sorted(CAMPAIGN_KEYS))
def test_campaign_group_key_is_pinned(task_type):
    params, key = CAMPAIGN_KEYS[task_type]
    assert checkpoint_key(BOOTSTRAP_SPECS[task_type](params)) == key
