"""Integration: every example script runs to completion.

The examples double as executable documentation; this keeps them from
rotting as the library evolves.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"
    lowered = out.lower()
    assert "traceback" not in lowered
    # every example prints evidence of protocol activity
    assert any(
        token in lowered
        for token in ("found", "discovered", "peerview", "ok")
    ), out[:400]
