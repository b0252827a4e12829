"""The definitions only tests reach are a committed list.

``scripts/unreached_defs.py`` lists each ``def``/``class`` under
``src/repro`` that no program names (tests do not count).  Its output,
read as ``path name`` pairs without line numbers, must equal
``tests/fixtures/unreached_defs.txt``: a new definition that only tests
call fails here until it is deleted, or added to the fixture with its
reason in CHANGES.md; a listed one that a program starts to call, or
that is deleted, comes off the fixture.  Regenerate the fixture with::

    python scripts/unreached_defs.py | sed -E 's/:[0-9]+ / /' \\
        > tests/fixtures/unreached_defs.txt
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "unreached_defs.py"
FIXTURE = ROOT / "tests" / "fixtures" / "unreached_defs.txt"


def load_unreached_defs():
    """``scripts/unreached_defs.py`` as a module."""
    spec = importlib.util.spec_from_file_location("unreached_defs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_unreached_definitions_are_the_committed_list():
    listed = [
        tuple(line.split(" "))
        for line in FIXTURE.read_text(encoding="utf-8").splitlines()
    ]
    found = [
        (path.as_posix(), name)
        for path, _, name in load_unreached_defs().scan(ROOT)
    ]
    new = sorted(set(found) - set(listed))
    gone = sorted(set(listed) - set(found))
    assert found == listed, (
        f"only tests reach {new}: delete them, or add them to "
        f"{FIXTURE.name} with their reason in CHANGES.md; "
        f"no longer unreached {gone}: take them off {FIXTURE.name}"
    )
