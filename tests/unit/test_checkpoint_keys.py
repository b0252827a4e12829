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
    "786331bdd850a76ee7098684bf269ea6af2a2cedb348df9564bc1235aa7e234c"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False),
        "1fc1b2c1ddc467499f7a1efaec823113a8ac255915f6077600e25ae2c9e84305",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(20, True, warmup=60 * MINUTES),
        "59d7f3688f1983f944d8523b824939343310b2580cb77fd0778ff6c96be1ea21",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(load_exp.ci_spec(), 8, seed=3),
        "fd94e97ecd05bf1d2f49e4e01b716434a170d7f525ef22037f80449c7667347d",
    ),
}

FUZZ_KEYS = (
    "f61682c39439c9ca440fde03f72b23be68356009c8066e1b4fa261606730715a",
    "622ea6090ff5e3cd3e8d9249acb9ef604b5e89f7f97803e70807ae07cf14c256",
    "3c3a32b83e6b6eecd0c02e357bd02d61fe74cceb85fcfd68ce5540f42d5ed5df",
    "988d77e149b0c19f8e36683361b4944426238f2a2bfeec4becf1b4d86514af17",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "12b444ce66757d34d3718a0dad94a5cd7d66d78d2e6a9517e7a7c7ef10fdf2d5",
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
