"""Every bootstrap's checkpoint key, pinned.

A key is the store address of a warmed overlay: if one moves, every
cache filled before the move silently misses and rebuilds.  Each key
function gets an explicit ``SimOptions()``, and the campaign groups
(whose tasks resolve their options from the environment) run with the
``REPRO_*`` switches cleared, so the values hold on either scheduler
leg of CI.
"""

import pytest

from repro.campaign.tasks import bootstrap_spec_of
from repro.experiments import churn_exp, fig4_right, load_exp
from repro.fuzz import SEED_CASES
from repro.fuzz import runner as fuzz_runner
from repro.sim import MINUTES, SimOptions
from repro.snapshot import checkpoint_key

DEFAULT = SimOptions()

CHURN_R16_SEED2 = (
    "418cef2e175a3aaafa0460da24ff1a491d432acc6a8ce9ce28f6bdcf1b17c2dd"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2, options=DEFAULT),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False, options=DEFAULT),
        "81237fab6df1c9568edec9771feae66be0df72bfaebbe5085045dc928c579c1a",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(
            20, True, warmup=60 * MINUTES, options=DEFAULT
        ),
        "ed484ba80cef7be86a5eb03692f45fdb2d086c8393bc663859dd97e8e8743920",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(
            load_exp.ci_spec(), 8, seed=3, options=DEFAULT
        ),
        "da3bf3f47e883d4157e9914a6687e8dc96204188a2edb67b21d236b54752eddf",
    ),
}

FUZZ_KEYS = (
    "8166916f1275c0917694c84be285329d92a73b4fee865e0c203028f316f8b794",
    "10aecfdcf5d54aebdc345d740910e464689312bee6daeb9c5930f63029630707",
    "8d11fdaf65167cf6897875b541a52c449f645b88bd0bcc6e1de56436762dd9a2",
    "165bccda0bc10fad232223ab3f4b5f64ab930c066a92dfdd794e9d51675f592d",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "661b9de8ff3b4df43ecb1f66bb3e9093499b5f478b30ec1771c0e05f9917df40",
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
    for name in ("REPRO_SCHEDULER", "REPRO_POOL_DEBUG", "REPRO_CANARY"):
        monkeypatch.delenv(name, raising=False)
    params, key = CAMPAIGN_KEYS[task_type]
    assert checkpoint_key(bootstrap_spec_of(task_type, params)) == key
