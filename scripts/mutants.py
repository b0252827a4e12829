#!/usr/bin/env python
"""Planted bugs, applied to a copy of the source and never to the repo.

A mutant is one textual edit of one module under ``src/repro``: an
anchor that must occur exactly once in today's source, and the text
that replaces it.  :func:`apply` copies ``src/`` into a directory and
patches the copy; :func:`call_in` runs a function in a fresh
interpreter that imports ``repro`` from such a copy.  The fuzzer is
proved against these mutants (``tests/conftest.py``'s ``expire_leak``
fixture, ``scripts/fuzz_smoke.py``), and
``tests/unit/test_mutants.py`` fails when an edit of the source leaves
an anchor matching nothing.

Materialise one mutant (prints the copy's ``src`` directory)::

    python scripts/mutants.py peerview.expire-leak /tmp/mutant
    cd /tmp/mutant && PYTHONPATH=src python -m repro.fuzz.cli --seed 0 --budget 8
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

#: name -> (module under ``src/repro``, anchor, replacement)
MUTANTS: Dict[str, Tuple[str, str, str]] = {
    # PeerView.expire puts the ordered-list slot of every third dropped
    # key back: the ordered list and the entry map disagree
    "peerview.expire-leak": (
        "rendezvous/peerview.py",
        '            self.remove_by_key(key, now, reason="expired")\n',
        '            self.remove_by_key(key, now, reason="expired")\n'
        "            if key % 3 == 1:\n"
        "                bisect.insort(self._order, "
        "self.interner.order_token(key))\n",
    ),
}


def patched(name: str, src: Path = SRC) -> str:
    """The text of mutant ``name``'s module under ``src``, mutated."""
    module, anchor, replacement = MUTANTS[name]
    text = (src / "repro" / module).read_text(encoding="utf-8")
    count = text.count(anchor)
    assert count == 1, f"{name}: anchor occurs {count} times in {module}"
    mutated = text.replace(anchor, replacement)
    ast.parse(mutated, filename=module)
    return mutated


def apply(name: str, dest: Path) -> Path:
    """Copy ``src/`` to ``dest/src`` and apply mutant ``name`` there;
    returns the copy's ``src`` directory."""
    copy = Path(dest) / "src"
    shutil.copytree(
        SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    (copy / "repro" / MUTANTS[name][0]).write_text(
        patched(name), encoding="utf-8"
    )
    return copy


_CHILD = """
import json, pathlib, runpy, sys
import repro
src, path, function, args = json.loads(sys.argv[1])
here = pathlib.Path(repro.__file__).resolve()
assert here.is_relative_to(pathlib.Path(src).resolve()), here
print(json.dumps(runpy.run_path(path)[function](*args)))
"""


def call_in(src: Path, path: Path, function: str, *args: Any) -> Any:
    """``function(*args)`` of the script at ``path``, called in a fresh
    interpreter that imports ``repro`` from ``src``; returns its result,
    which must be JSON."""
    src = Path(src)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD,
         json.dumps([str(src), str(path), function, list(args)])],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=src.parent,
        capture_output=True, text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"{function} failed on {src}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=sorted(MUTANTS))
    parser.add_argument("dest", type=Path)
    args = parser.parse_args()
    print(apply(args.name, args.dest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
