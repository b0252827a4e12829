"""The options no program sets are a committed list.

``scripts/unset_params.py`` lists each defaulted parameter under
``src/repro`` that no program passes (tests do not count).  Its output
must equal ``tests/fixtures/unset_params.txt``: a new option that only
tests set fails here until it becomes a constant, or is added to the
fixture with its reason in CHANGES.md; a listed one that a program
starts to pass, or that is deleted, comes off the fixture.  Regenerate
the fixture with::

    python scripts/unset_params.py > tests/fixtures/unset_params.txt
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "unset_params.py"
FIXTURE = ROOT / "tests" / "fixtures" / "unset_params.txt"


def load_unset_params():
    """``scripts/unset_params.py`` as a module."""
    spec = importlib.util.spec_from_file_location("unset_params", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_unset_parameters_are_the_committed_list():
    listed = [
        tuple(line.split(" "))
        for line in FIXTURE.read_text(encoding="utf-8").splitlines()
    ]
    found = load_unset_params().scan(ROOT)
    new = sorted(set(found) - set(listed))
    gone = sorted(set(listed) - set(found))
    assert found == listed, (
        f"only tests set {new}: make them constants, or add them to "
        f"{FIXTURE.name} with their reason in CHANGES.md; "
        f"no longer unset {gone}: take them off {FIXTURE.name}"
    )


def test_the_scan_sees_keywords_positions_and_stars(tmp_path):
    """A keyword, a position past the required ones, or a ``*``/``**``
    call passes a parameter; a call from ``tests/`` does not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class C:\n    def __init__(self, x=0, y=0):\n        pass\n"
        "@dataclass\nclass D:\n    p: int\n    q: int = 0\n    r: int = 0\n"
        "f(0, 5, d=6)\nC(1)\nD(1, 2)\n",
        encoding="utf-8",
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text(
        "def g(**kw):\n    m.f(0, **kw)\n", encoding="utf-8"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("D(1, 2, r=3)\n", encoding="utf-8")
    assert load_unset_params().scan(tmp_path) == [
        ("src/repro/m.py", "C.__init__.y"),
        ("src/repro/m.py", "D.r"),
    ]
