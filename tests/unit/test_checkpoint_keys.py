"""Every bootstrap's checkpoint key, pinned.

A key is the store address of a warmed overlay: if one moves, every
cache filled before the move silently misses and rebuilds.  Each key
function gets an explicit ``SimOptions()``, and the campaign groups
(whose tasks resolve their options from the environment) run with
``REPRO_CANARY`` cleared.
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
    "81d80de96a42cd8ad2de8f7f5d84ef06232086784c8482ce5b2d2674ab941081"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2, options=DEFAULT),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False, options=DEFAULT),
        "21a3b8bee687c9682a3ffae0c0a45626e6f9c5304c100059d8709fb03486a310",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(
            20, True, warmup=60 * MINUTES, options=DEFAULT
        ),
        "f6cc69072b8989e9f63404e0be3cf5e6f59e03b805e82cede71f864858fc6ecc",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(
            load_exp.ci_spec(), 8, seed=3, options=DEFAULT
        ),
        "af135c680b16013df3f474cfba34ba8a081563e3ff1d792ed00dcc87ab7c0fed",
    ),
}

FUZZ_KEYS = (
    "636d9b1c91d684fea40538c7da11d3d69a59289baef98ffd338883aa6b493cc8",
    "1cac4072221c067f2cf6c82b8b6a0dad6dd0b543f3f7d1125b66c40cabc771a1",
    "60fdeec58d256348f1a7cb1cf7d3f888d6304bbc1dfa0a8315bd678c01aae091",
    "8b8681e76777a6e39eec2b0c260881857fa9b1bb4f600ba17f585807bf5f9168",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "1ca8e517cf359d9579d29e8b0a327d5e296e61f7afe341d74b1e8290d440a9c8",
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
    assert checkpoint_key(bootstrap_spec_of(task_type, params)) == key
