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
    "fa59e2c0f2dc7b2a1911f3115d46aea519994bd230a7bcff93f0de1c8d7fe339"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False),
        "b2256a4970b870abe53f6764ad29c18ecc9fa2e09b5466e5d61ce1a11fae65e3",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(20, True, warmup=60 * MINUTES),
        "d0fe1e9012677955a4b48ba0de6b48181c17ef4c1e5119646c77db04480b579b",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(load_exp.ci_spec(), 8, seed=3),
        "b2aca9e3c95298fab5e524681ca2279cb4269537f79e51aa85732cbc1e0c61d2",
    ),
}

FUZZ_KEYS = (
    "ef80de9ac5d447058a927b5980c06dd27c1630024cd06da89f63b78d9d40568a",
    "f59f1e78b501e47f0081acede5b2c96ff1725f269a60db83a08dff695abf5ac6",
    "7bffce0c2ff43f424d6dd0406978b117a79c40552a1a28b122576870284d2aa8",
    "a1a62d8eba1fa44976c747c1b862b6a1dbda281b55616668ce6725f751961d12",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "f526be89f4a4ca4290098cebc128eacda4b94b338f389c5b120aef2e9889ee66",
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
