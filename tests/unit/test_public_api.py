"""The public API surface: every declared export resolves."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.advertisement",
    "repro.analysis",
    "repro.baselines",
    "repro.deploy",
    "repro.discovery",
    "repro.endpoint",
    "repro.ids",
    "repro.metrics",
    "repro.network",
    "repro.peergroup",
    "repro.rendezvous",
    "repro.resolver",
    "repro.sim",
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
