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
    "1585171ea02fb0fe8b64b29d64f998a18fcc38827a0988de1798c4e7173f1732"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2, options=DEFAULT),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False, options=DEFAULT),
        "ab0e07000a298409c0c8497a6e2222890b184e14a1f60252c8da721ea776113e",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(
            20, True, warmup=60 * MINUTES, options=DEFAULT
        ),
        "44a305a27976aede438770d0cdb34b9ce3a46182d8f109d8994de908ef3f309b",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(
            load_exp.ci_spec(), 8, seed=3, options=DEFAULT
        ),
        "6eee9d144e0ee9effb5075507d2073f3bcd641ad750d9a4cbaf029361d721df3",
    ),
}

FUZZ_KEYS = (
    "9ee7ad798159e2b72b7087a28f5af2388e83b008c0a4a42f06ba8515338bf0eb",
    "a3ab5a13171d756a3c04214306c5b591387deadc1120e66d3e01666ed9662d11",
    "ddaf294f6c92949de75e26f55de62d3d0b02b2026797b14de8ea8571a3720e22",
    "e3e1d4c798c23683cc7ea62295c732abe4d856c9e3bcbfedd6fb53937c02905f",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "6c2426458d23bbfde81c8c06b8eb80bd41323a1cdf4e65f761b6dd02b7e8794d",
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
