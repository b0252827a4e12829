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
    "72a4c4931288ac2680bf8cb5c639aa114af1a4f2997d744820310b43f9809a2f"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2, options=DEFAULT),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False, options=DEFAULT),
        "07a9a5c3879432e60366d596d05e3849716f45168e4f5fd63f1b83b5fdb630e9",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(
            20, True, warmup=60 * MINUTES, options=DEFAULT
        ),
        "d6fdfd590e6b08a319f0c275b5f842b536130e21d087e5c4dfe052ce0e8315bc",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(
            load_exp.ci_spec(), 8, seed=3, options=DEFAULT
        ),
        "d99b6cb2f2bea46847b2ed5656b964ef8cb69962c3ec86e259448e73489427d8",
    ),
}

FUZZ_KEYS = (
    "bbccfd604eafff8a5d92f8b0f1032e1c496d86810deab8891ca48486d9ff5411",
    "2e94436cd4fe06219aa60e3a05a4640c2431ee2142cf2cf3ae961f56a0aaf66e",
    "8807f63a073960f42bab0ab18ace6570f045356bda91b185641ed4eca3bc96b4",
    "1e45b8d4b164347f289bf86c2473d27c0b1b515a7558cb86f176210834f8b6d6",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "406c1b293dec301ecd9fd5dbcd433e336f3477f611a606e86d098151bfe12086",
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
