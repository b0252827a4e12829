"""List the defaulted parameters under ``src/repro`` that no program passes.

Usage: ``python scripts/unset_params.py [--root DIR]``.  Prints ``path
qualname.param`` for each defaulted parameter of a function, a method
(``__init__`` is called by its class's name) or a ``@dataclass`` field
that no call in ``src/``, ``bench/``, ``scripts/``, ``examples/`` or
``benchmarks/`` passes by keyword or position (``*args`` or ``**kwargs``
pass all).  Tests do not count: an option only they set is listed.

The scan is lexical: ``f(...)`` and ``x.f(...)`` match every definition
named ``f`` (``m.f(...)`` only module ``m``'s), so it misses a parameter
that a same-named callee takes, or that a caller only forwards from its
own unset one.  Builders reached through a registry, ``getattr`` or
``dataclasses.replace`` are never matched, so their parameters are
listed though a program sets them.  It always exits 0;
``tests/unit/test_unset_params.py`` holds its output to
``tests/fixtures/unset_params.txt``.
"""

import argparse
import ast
import sys
from collections import defaultdict
from pathlib import Path

#: trees whose code counts as a caller, besides ``src/``
CALLER_DIRS = ("bench", "scripts", "examples", "benchmarks")


def _params(node, method: bool):
    """(position or None, name) of each defaulted parameter of a def, or
    of each defaulted ``__init__`` field of a dataclass."""
    if isinstance(node, ast.ClassDef):
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                  and "init=False" not in ast.unparse(s)]
        return [(i, f.target.id) for i, f in enumerate(fields) if f.value]
    args = node.args
    positional = args.posonlyargs + args.args
    static = any("staticmethod" in ast.unparse(d) for d in node.decorator_list)
    skip = int(method and not static)  # self / cls
    first = len(positional) - len(args.defaults)
    return [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _defs(tree):
    """(callee name, qualname, params) of each top-level def and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, _params(node, False)
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                yield node.name, node.name, _params(node, False)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    callee = node.name if item.name == "__init__" else item.name
                    yield callee, f"{node.name}.{item.name}", _params(item, True)


def scan(root: Path):
    """Sorted ``(path, qualname.param)`` of every unset parameter."""
    src = root / "src"
    files = [p for d in ("src",) + CALLER_DIRS for p in sorted((root / d).rglob("*.py"))]
    calls = defaultdict(list)  # name -> [(qualifier, positionals, keywords)]
    defs = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                qualifier = getattr(getattr(func, "value", None), "id", None)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if star else len(node.args)
                calls[name].append((qualifier, count, {k.arg for k in node.keywords}))
        if path.is_relative_to(src / "repro"):
            defs += [(path, *d) for d in _defs(tree)]
    modules = {path.stem for path, *_ in defs}
    out = []
    for path, callee, qualname, params in defs:
        mine = [(count, keywords) for qualifier, count, keywords in calls[callee]
                if qualifier not in modules or qualifier == path.stem]
        for position, param in params:
            if not any(param in keywords or None in keywords
                       or (position is not None and count > position)
                       for count, keywords in mine):
                out.append((path.relative_to(root).as_posix(), f"{qualname}.{param}"))
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    for path, param in scan(parser.parse_args(argv).root):
        print(f"{path} {param}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
