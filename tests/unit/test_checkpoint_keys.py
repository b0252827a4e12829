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
    "243058bb2a7c6edae30ebb90c4e8d40fb3b1a12001354147cc01356bbe6d596e"
)

KEYS = {
    "churn r=16 seed=2": (
        lambda: churn_exp.bootstrap_spec(r=16, seed=2, options=DEFAULT),
        CHURN_R16_SEED2,
    ),
    "fig4-right r=8 A": (
        lambda: fig4_right.bootstrap_spec(8, False, options=DEFAULT),
        "3a5a501c0079cdb3391bfdf911a16296c0ff1798d45c46651fe83cb753d926b9",
    ),
    "fig4-right r=20 B warmup=60min": (
        lambda: fig4_right.bootstrap_spec(
            20, True, warmup=60 * MINUTES, options=DEFAULT
        ),
        "352341712053acfdb2b52a859e9dfa3dfeff8836bbddf2d1d2a4c35f5e146507",
    ),
    "load ci_spec r=8 seed=3": (
        lambda: load_exp.bootstrap_spec(
            load_exp.ci_spec(), 8, seed=3, options=DEFAULT
        ),
        "60be3b9261cd21c724b409c1585f4e092af4725d97cdb265faad5da8e50dd942",
    ),
}

FUZZ_KEYS = (
    "7499de330a4f49e9f9d4ac224c920e76c39f839fad716cccfa4c16dabee22234",
    "239304c04fb8471a3f462c2fc48a0d7fea168c44bbb1a5872e5a1abb9c6490c0",
    "8178fbda18f41d6ff8afde173e17cd00de9540fb325d524b6d8f91eaeccc733c",
    "dc1dc5108b5642d12b573b2b7ff0c0283ad7f67223b10f347bf96e69452e31e2",
)

CAMPAIGN_KEYS = {
    "churn": ({"r": 16, "seed": 2}, CHURN_R16_SEED2),
    "load": (
        {"r": 24, "rate": 1, "skew": 0, "seed": 1, "warmup": 3600},
        "d21c46ec1c17b3a3da67149337f7828a41aca92866b0da4a8237dfea33d7d502",
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
    for name in ("REPRO_SCHEDULER", "REPRO_CANARY"):
        monkeypatch.delenv(name, raising=False)
    params, key = CAMPAIGN_KEYS[task_type]
    assert checkpoint_key(bootstrap_spec_of(task_type, params)) == key
