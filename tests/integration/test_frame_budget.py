"""Integration: the Python frames an operation climbs stay within budget.

``scripts/frames_per_op.py`` counts, with ``sys.setprofile``, the Python
frames per operation of three regimes at CI size — a completed flat
LC-DHT lookup, a walk hop, a peerview message — attributed to the
``repro`` package that defines each frame.  The runs are deterministic,
so on one interpreter version the counts repeat exactly (CI runs
CPython 3.11); a helper, a generator or a property chain added to one
of these paths raises its count by at least one frame per operation.

``BUDGET`` is the count measured when the budget was last lowered.  A
change that removes frames lowers it here (run the script and paste its
``--json`` per-op numbers); a change that must add frames says why in
the same commit.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "frames_per_op.py"

#: frames per operation: total and by layer, one decimal
BUDGET = {
    "flat": {
        "total": 108.7,
        "advertisement": 10.9, "discovery": 21.4, "endpoint": 23.0,
        "ids": 1.0, "network": 8.1, "obs": 1.0, "other": 3.9,
        "rendezvous": 0.6, "resolver": 16.9, "sim": 12.5, "workload": 9.4,
    },
    "walk": {
        "total": 31.6,
        "advertisement": 1.9, "discovery": 7.8, "endpoint": 7.1,
        "ids": 1.1, "network": 2.8, "obs": 0.1, "other": 0.5,
        "rendezvous": 1.3, "resolver": 5.4, "sim": 3.0, "workload": 0.6,
    },
    "peerview": {
        "total": 14.0,
        "endpoint": 1.0, "ids": 0.4, "network": 2.0, "other": 0.0,
        "rendezvous": 7.9, "sim": 2.7,
    },
}


pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the budget is exact frame counts, measured on CPython 3.11; "
    "another interpreter version climbs a different number of frames",
)


@pytest.fixture(scope="module")
def counts():
    """Each regime counted once for the module."""
    spec = importlib.util.spec_from_file_location("frames_per_op", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return {name: run() for name, run in module.REGIMES.items()}


@pytest.mark.parametrize("regime", sorted(BUDGET))
def test_frames_per_operation_within_budget(counts, regime):
    count = counts[regime]
    # enough operations to resolve one frame per operation (the flat
    # regime also asserts that no lookup walked)
    assert count.ops > 500
    measured = count.per_op()
    over = {
        layer: f"{n} > {BUDGET[regime].get(layer, 0.0)}"
        for layer, n in measured.items()
        if n > BUDGET[regime].get(layer, 0.0)
    }
    assert not over, (
        f"{regime}: frames per {count.unit} over budget {over}; "
        f"measured {measured}"
    )
