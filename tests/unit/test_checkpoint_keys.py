"""Every bootstrap's checkpoint key, pinned.

A key is the store address of a warmed overlay: if one moves, every
cache filled before the move silently misses and rebuilds.  Each key
function gets an explicit ``SimOptions()``, and the campaign groups
(whose tasks resolve their options from the environment) run with
``REPRO_CANARY`` cleared.
"""

import pytest

from repro.campaign.tasks import BOOTSTRAP_SPECS
from repro.experiments import churn_exp, fig4_right, load_exp
from repro.fuzz import SEED_CASES
from repro.fuzz import runner as fuzz_runner
from repro.sim import MINUTES, SimOptions
from repro.snapshot import checkpoint_key

DEFAULT = SimOptions()

CHURN_R16_SEED2 = (
    "8529309d407dcb988483d5086102067e3837b9caad12e424c82cf028feac0ae8"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2, options=DEFAULT),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False, options=DEFAULT),
        "c3e21972ac77b52b7cde90ee16d8d8579848db5d81b7190dfd3ae63a6c087f27",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(
            20, True, warmup=60 * MINUTES, options=DEFAULT
        ),
        "26b082f8cd03228b0d3da52673c951c8969b629b444c14c1b8b58f1bb01545d9",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(
            load_exp.ci_spec(), 8, seed=3, options=DEFAULT
        ),
        "eab5e30d1bff51800f2e13df96de1916fcad9af93bb91cb0a462b8219d1806a1",
    ),
}

FUZZ_KEYS = (
    "e195a59e21d294ab8c5fe4f4b23efded5688849906e04fd07f0d3b1a67172206",
    "6f17408c3672feafa9911987dc9996b2f95e108ac55e35d294416ce220b77d23",
    "f059d095ca1d3e21ed05df098620f2ffedc0b36c9dec9a1f0fa67f22bac09b72",
    "eba3af82def76b08c263cdf5ee82b0934928265b1b29720d097f22675a491af1",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "bd770d823bfdcc7111caf06d185762cd446df20a234a36739220f62ba582b7a6",
    ),
}


@pytest.mark.parametrize("name", sorted(KEYS))
def test_experiment_key_is_pinned(name):
    spec, key = KEYS[name]
    assert checkpoint_key(spec()) == key


@pytest.mark.parametrize("index", range(len(FUZZ_KEYS)))
def test_fuzz_key_is_pinned(index):
    spec = fuzz_runner.bootstrap_spec(SEED_CASES[index], DEFAULT, metrics=True)
    assert checkpoint_key(spec) == FUZZ_KEYS[index]


@pytest.mark.parametrize("task_type", sorted(CAMPAIGN_KEYS))
def test_campaign_group_key_is_pinned(task_type, monkeypatch):
    monkeypatch.delenv("REPRO_CANARY", raising=False)
    params, key = CAMPAIGN_KEYS[task_type]
    assert checkpoint_key(BOOTSTRAP_SPECS[task_type](params)) == key
