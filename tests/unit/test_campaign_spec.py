"""Unit tests for campaign specs: grid expansion and content keys."""

import hashlib

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    canonical_json,
    derive_seed,
    task_key,
)


#: campaign -> sha256 of its expanded task keys at CI and --full size,
#: one and three seeds.  Run stores resume by these keys, so a grid that
#: is restated anywhere but its experiment's ``SIZES`` must reproduce them.
PINNED_TASK_KEYS = {
    "fig3": "030464b6dd530368",
    "ablation": "249f646c70bdbd61",
    "churn": "8b784af25fcf0390",
    "load": "b21d2d93221715f1",
    "fuzz": "79ada0f662a1f8b2",
    "all": "6caf13c835ea8fbb",
}


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_compact(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'


class TestTaskKey:
    def test_stable_across_declaration_order(self):
        assert task_key("t", {"r": 10, "seed": 1}) == task_key(
            "t", {"seed": 1, "r": 10}
        )

    def test_distinguishes_params_and_type(self):
        base = task_key("t", {"r": 10})
        assert task_key("t", {"r": 11}) != base
        assert task_key("u", {"r": 10}) != base

    def test_shape(self):
        key = task_key("t", {"r": 10})
        assert len(key) == 16
        assert int(key, 16) >= 0


class TestExpansion:
    def spec(self):
        return CampaignSpec(
            name="demo",
            task_type="t",
            grid={"r": [10, 20], "seed": [1, 2, 3]},
            base={"duration": 60.0},
        )

    def test_cartesian_product(self):
        tasks = self.spec().expand()
        assert len(tasks) == 6
        assert {(t.params["r"], t.params["seed"]) for t in tasks} == {
            (r, s) for r in (10, 20) for s in (1, 2, 3)
        }

    def test_base_merged_into_every_task(self):
        assert all(t.params["duration"] == 60.0 for t in self.spec().expand())

    def test_deterministic_order_and_keys(self):
        a, b = self.spec().expand(), self.spec().expand()
        assert [t.key for t in a] == [t.key for t in b]

    def test_dict_axis_values_merge(self):
        spec = CampaignSpec(
            name="demo",
            task_type="t",
            grid={"config": [{"r": 10, "topology": "chain"}], "seed": [1]},
        )
        (task,) = spec.expand()
        assert task.params == {"r": 10, "topology": "chain", "seed": 1}
        assert "config" not in task.params

    def test_duplicate_tasks_rejected(self):
        spec = CampaignSpec(
            name="demo", task_type="t", grid={"r": [10, 10]}
        )
        with pytest.raises(ValueError, match="duplicate"):
            spec.expand()

    def test_empty_axis_rejected(self):
        spec = CampaignSpec(name="demo", task_type="t", grid={"r": []})
        with pytest.raises(ValueError, match="no values"):
            spec.expand()

    def test_label_is_compact(self):
        task = self.spec().expand()[0]
        assert task.label().startswith("t(")
        assert "r=10" in task.label()

    def test_seed_property(self):
        assert self.spec().expand()[0].seed in (1, 2, 3)


class TestSpecHash:
    def test_sensitive_to_grid_and_base(self):
        spec = CampaignSpec("n", "t", {"r": [1]}, base={"d": 1})
        assert spec.spec_hash() != CampaignSpec("n", "t", {"r": [2]}, {"d": 1}).spec_hash()
        assert spec.spec_hash() != CampaignSpec("n", "t", {"r": [1]}, {"d": 2}).spec_hash()
        assert spec.spec_hash() == CampaignSpec("n", "t", {"r": [1]}, {"d": 1}).spec_hash()


class TestDeriveSeed:
    def test_deterministic_and_positive(self):
        assert derive_seed(1, "abc") == derive_seed(1, "abc")
        assert derive_seed(1, "abc") != derive_seed(2, "abc")
        assert derive_seed(1, "abc") >= 1


class TestBuiltinCampaigns:
    def test_every_builtin_expands(self):
        from repro.campaign.builtin import CAMPAIGNS, build_campaign

        for name in CAMPAIGNS:
            spec = build_campaign(name, seeds=2)
            tasks = spec.expand()
            assert tasks, name
            assert len({t.key for t in tasks}) == len(tasks)

    def test_seed_axis(self):
        from repro.campaign.builtin import build_campaign

        spec = build_campaign("fig3", seeds=3, base_seed=7)
        seeds = {t.params["seed"] for t in spec.expand()}
        assert seeds == {7, 8, 9}

    @pytest.mark.parametrize("name", sorted(PINNED_TASK_KEYS))
    def test_task_keys_are_pinned(self, name):
        from repro.campaign.builtin import build_campaign

        keys = [
            t.key
            for full in (False, True) for seeds in (1, 3)
            for t in build_campaign(name, full=full, seeds=seeds).expand()
        ]
        digest = hashlib.sha256(",".join(keys).encode()).hexdigest()[:16]
        assert digest == PINNED_TASK_KEYS[name]

    def test_load_task_rejects_unknown_params(self):
        from repro.campaign.builtin import build_campaign
        from repro.campaign.tasks import _load_workload_spec

        with pytest.raises(ValueError, match="closed_clients.*qeuriers"):
            _load_workload_spec(
                {"closed_clients": 3, "arrivals": "mmpp", "qeuriers": 40}
            )
        # every built-in load task passes only known params
        for full in (False, True):
            for task in build_campaign("load", full=full).expand():
                _load_workload_spec(task.params)

    def test_unknown_campaign(self):
        from repro.campaign.builtin import build_campaign

        with pytest.raises(KeyError, match="unknown campaign"):
            build_campaign("nope")
