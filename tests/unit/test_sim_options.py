"""One options value, one reader of the environment.

The canary switch is a :class:`SimOptions` value the simulator is
built with.  The environment
is read in :meth:`SimOptions.from_env` and nowhere else under
``src/repro``; nothing there writes it.  A snapshot carries the options
it was built with, and every warm-start key covers the whole value.
"""

import ast
import os
import pickle
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments import churn_exp, fig4_right
from repro.fuzz import SEED_CASES, run_case
from repro.fuzz import engine as engine_mod
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.runner import DIGEST, bootstrap_spec
from repro.network import Network
from repro.sim import SimOptions, Simulator
from repro.sim.options import CANARIES
from repro.snapshot import CheckpointStore

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ARMED = SimOptions(canaries=CANARIES)


class _EnvironmentUses(ast.NodeVisitor):
    """``(qualified function name, line)`` of every ``os.environ`` /
    ``os.getenv`` / ``os.putenv`` / ``from os import environ``."""

    def __init__(self):
        self.scope = []
        self.found = []

    def _nested(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nested

    def _note(self, node):
        self.found.append((".".join(self.scope) or "<module>", node.lineno))

    def visit_Attribute(self, node):
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv", "putenv", "unsetenv")
        ):
            self._note(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "os" and any(
            alias.name in ("environ", "getenv", "putenv", "unsetenv")
            for alias in node.names
        ):
            self._note(node)


def environment_uses(source):
    visitor = _EnvironmentUses()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_pass_sees_every_spelling():
    source = (
        "import os\nfrom os import environ\n"
        "def f():\n    os.environ['A'] = '1'\n"
        "class C:\n    def g(self):\n        return os.getenv('B')\n"
    )
    assert [scope for scope, _ in environment_uses(source)] == [
        "<module>", "f", "C.g",
    ]


def test_only_from_env_reads_the_environment():
    found = {
        (str(path.relative_to(SRC)), scope)
        for path in sorted(SRC.rglob("*.py"))
        for scope, _ in environment_uses(path.read_text())
    }
    assert found == {("sim/options.py", "SimOptions.from_env")}


# ---------------------------------------------------------------------------
# the value
# ---------------------------------------------------------------------------

def test_defaults_are_the_benchmarked_program():
    assert [f.name for f in fields(SimOptions)] == ["canaries"]
    assert SimOptions() == SimOptions(canaries=())


def test_canaries_are_a_sorted_tuple_of_known_names():
    options = SimOptions(canaries=["peerview.expire-leak"] * 2)
    assert options.canaries == ("peerview.expire-leak",)
    assert options == ARMED and hash(options) == hash(ARMED)
    with pytest.raises(ValueError, match="unknown canaries"):
        SimOptions(canaries=("nonsense",))


def test_from_env_maps_the_two_variables(monkeypatch):
    """``REPRO_CANARY=1`` arms every canary; ``REPRO_SCHEDULER``, which
    chose between two schedulers until the kernel became one heap, is
    read no more."""
    for name in ("REPRO_SCHEDULER", "REPRO_CANARY"):
        monkeypatch.delenv(name, raising=False)
    assert SimOptions.from_env() == SimOptions()
    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    assert SimOptions.from_env() == SimOptions()
    monkeypatch.setenv("REPRO_CANARY", "1")
    assert SimOptions.from_env() == SimOptions(canaries=CANARIES)
    assert Simulator(seed=1).options == SimOptions.from_env()


def test_the_network_and_the_views_read_the_simulators_options():
    from repro.config import PlatformConfig
    from repro.deploy import OverlayDescription, build_overlay

    sim = Simulator(seed=1, options=ARMED)
    network = Network(sim)
    overlay = build_overlay(
        sim, network, PlatformConfig(), OverlayDescription(rendezvous_count=3)
    )
    assert all(rdv.view.expire_leak for rdv in overlay.rendezvous)


# ---------------------------------------------------------------------------
# restore and warm starts
# ---------------------------------------------------------------------------

def test_a_restored_simulator_runs_as_it_was_built(monkeypatch):
    blob = pickle.dumps(Simulator(seed=1, options=ARMED))
    monkeypatch.delenv("REPRO_CANARY", raising=False)
    restored = pickle.loads(blob)
    assert restored.options == ARMED


def test_an_armed_blob_is_a_warm_start_miss_for_the_defaults(tmp_path):
    case = SEED_CASES[1]
    assert bootstrap_spec(case, ARMED) != bootstrap_spec(case, SimOptions())
    store = CheckpointStore(tmp_path / "cache")
    run_case(case, options=ARMED, store=store, reads=(DIGEST,))
    assert store.counters()["misses"] == 1
    run_case(case, options=SimOptions(), store=store, reads=(DIGEST,))
    assert store.counters()["hits"] == 0
    assert store.counters()["misses"] == 2
    run_case(case, options=SimOptions(), store=store, reads=(DIGEST,))
    assert store.counters()["hits"] == 1


@pytest.mark.parametrize(
    "variable, value", [("REPRO_CANARY", "1")], ids=["REPRO_CANARY"],
)
def test_experiment_warm_start_keys_cover_every_switch(
    monkeypatch, variable, value
):
    monkeypatch.delenv("REPRO_CANARY", raising=False)
    plain = (churn_exp.bootstrap_spec(), fig4_right.bootstrap_spec(8, False))
    monkeypatch.setenv(variable, value)
    switched = (churn_exp.bootstrap_spec(), fig4_right.bootstrap_spec(8, False))
    assert plain[0] != switched[0] and plain[1] != switched[1]


# ---------------------------------------------------------------------------
# the fuzzer leaves the process alone
# ---------------------------------------------------------------------------

def test_canary_find_shrink_classify_never_touches_the_environment(
    monkeypatch,
):
    before = dict(os.environ)
    seen = []
    real = engine_mod.check_case

    def recording(*args, **kwargs):
        seen.append(dict(os.environ))
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "check_case", recording)
    report = FuzzEngine(seed=0, options=ARMED).run(8)
    assert report.failures
    assert all(entry.requires_canary for entry in report.failures)
    assert all(env == before for env in seen)
    assert dict(os.environ) == before
