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
    "0296d3f085b2d9b24a40f6164f401e3e034e0a7d31982391687c518567d854ba"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False),
        "d240dcdd26b1e5c869859f6e4536fa96cfdb2332690cbdfcd5df5717b017917b",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(20, True, warmup=60 * MINUTES),
        "272275f2c2e6a69c548d5d5a25de05722cc0d5a05fc7f4b33063491e1d5ff856",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(load_exp.ci_spec(), 8, seed=3),
        "0602ab9d730e014b658d13d0236c9bd648c186afdfb08898fff76cce1c72516b",
    ),
}

FUZZ_KEYS = (
    "147a7a80c946273aa9d6d1906a7c24d591100bcf0bd2e0589e4a98831af59d49",
    "84ef1033f3a84be0e07a2d50b88990a6b03d5b08dbe3318fe32ae9e82bad1301",
    "7d68b3eb1ce1d784935901e1467cd813d2892708e26c98d4c8d33252871f77e0",
    "cac9909ddfa0493af4ce162f0bfeff2e840535ea1cf8724c8b569674f384b44d",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "208c45703dcef7cefd657d765f3bc0bde43b91fa47aa092940817b4852c30209",
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
