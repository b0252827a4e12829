"""List the definitions under ``src/repro`` that no program names.

Usage::

    python scripts/unreached_defs.py [--root DIR]

Prints one ``path:line name`` per ``def`` or ``class`` under
``src/repro`` whose name appears nowhere else: not in ``src/`` outside
the definition's own lines, a package ``__init__``'s re-exports and its
``__all__``, and not in ``bench/``, ``scripts/``, ``examples/`` or
``benchmarks/``.  ``tests/`` does not count, so a definition only tests
call is listed.

A name "appears" when the code names it (a variable, an attribute, an
import, a keyword argument, an f-string field), or as a string literal
that is a (dotted) identifier — how ``getattr``, registries and the
benchmark harness's patch tables name code.  Comments and prose docstrings do
not count.  Dunder methods are skipped (the interpreter calls them).
The scan is lexical: a dead method that shares its name with a live
one is not listed.  It always exits 0;
``tests/unit/test_unreached_defs.py`` holds its output to the committed
``tests/fixtures/unreached_defs.txt``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

#: trees whose code counts as a caller, besides ``src/``
CALLER_DIRS = ("bench", "scripts", "examples", "benchmarks")

_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")


def _reexport_lines(tree: ast.Module) -> set:
    """Lines of an ``__init__``'s imports and ``__all__`` assignment."""
    lines = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
        if isinstance(node, (ast.Import, ast.ImportFrom)) or is_all:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _uses(tree: ast.Module):
    """(name, line) for every identifier the code names — variables,
    attributes, imports, keyword arguments, f-string fields — and every
    part of a string literal that is a dotted identifier."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.alias):
            for name in (node.name, node.asname):
                for part in (name or "").split("."):
                    yield part, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED.match(node.value)
        ):
            for part in node.value.split("."):
                yield part, node.lineno


def scan(root: Path):
    """Sorted ``(path, line, name)`` of every unreached definition."""
    src = root / "src"
    files = sorted(src.rglob("*.py"))
    for name in CALLER_DIRS:
        files += sorted((root / name).rglob("*.py"))
    # name -> [(path, line)] of every counted appearance
    seen = defaultdict(list)
    defs = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        skip = _reexport_lines(tree) if path.name == "__init__.py" else set()
        for name, line in _uses(tree):
            if line not in skip:
                seen[name].append((path, line))
        if path.is_relative_to(src / "repro"):
            for node in ast.walk(tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    defs.append((path, node))
    out = []
    for path, node in defs:
        first = min(
            [node.lineno] + [d.lineno for d in node.decorator_list]
        )
        if all(
            p == path and first <= line <= node.end_lineno
            for p, line in seen[node.name]
        ):
            out.append((path.relative_to(root), node.lineno, node.name))
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's checkout)",
    )
    args = parser.parse_args(argv)
    for path, line, name in scan(args.root):
        print(f"{path}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
