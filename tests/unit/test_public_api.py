"""The public API surface: every declared export resolves."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.advertisement",
    "repro.analysis",
    "repro.baselines",
    "repro.campaign",
    "repro.deploy",
    "repro.discovery",
    "repro.endpoint",
    "repro.faults",
    "repro.fuzz",
    "repro.ids",
    "repro.metrics",
    "repro.network",
    "repro.obs",
    "repro.peergroup",
    "repro.rendezvous",
    "repro.resolver",
    "repro.sim",
    "repro.snapshot",
    "repro.workload",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} declares no __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_quickstart_symbols():
    # the symbols the README quickstart depends on
    for symbol in (
        "Simulator", "Network", "PlatformConfig", "OverlayDescription",
        "build_overlay", "MINUTES",
    ):
        assert hasattr(repro, symbol)


def test_every_module_has_a_docstring():
    import pkgutil

    missing = []
    for pkg_name in PACKAGES:
        package = importlib.import_module(pkg_name)
        if not package.__doc__:
            missing.append(pkg_name)
        for info in pkgutil.iter_modules(getattr(package, "__path__", [])):
            module = importlib.import_module(f"{pkg_name}.{info.name}")
            if not module.__doc__:
                missing.append(module.__name__)
    assert not missing, f"modules without docstrings: {missing}"


def _imports_of(name, banned):
    """``file:line`` of every import of ``banned`` (or a submodule of it)
    anywhere under package ``name``, imports inside functions included."""
    import ast
    from pathlib import Path

    package = importlib.import_module(name)
    offenders = []
    for path in sorted(Path(package.__path__[0]).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(t == banned or t.startswith(banned + ".") for t in targets):
                offenders.append(f"{path.name}:{node.lineno}")
    return offenders


@pytest.mark.parametrize("name", ["repro.obs", "repro.faults", "repro.fuzz"])
def test_recording_layers_do_not_import_metrics(name):
    # repro.metrics (series, renderers) reads what these layers record;
    # an import the other way round would make the recorder depend on
    # its readers.
    offenders = _imports_of(name, "repro.metrics")
    assert not offenders, f"{name} imports repro.metrics at {offenders}"


def test_fault_vocabulary_does_not_import_fuzzer():
    # the fuzzer's gene tables (ranges, draws) read repro.faults; the
    # fault vocabulary must not learn the fuzzer's ranges back
    offenders = _imports_of("repro.faults", "repro.fuzz")
    assert not offenders, f"repro.faults imports repro.fuzz at {offenders}"
