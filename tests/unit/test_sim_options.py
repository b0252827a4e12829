"""Nothing under ``src/repro`` reads or writes the process environment.

A run is what its arguments say: no switch hides in a variable, and a
planted bug lives in a mutant on a copy of the source
(``scripts/mutants.py``), never behind a flag the product reads.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


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
    assert found == set()
