"""Golden-trace regression tests.

Each scenario in :mod:`repro.obs.golden` is re-run and its canonical
JSONL timeline diffed line-by-line against the committed fixture.  Any
change to protocol message counts, fire order or event timing —
however a refactor smuggles it in — shows up as a diff here.

Every scenario runs twice in one process, under the ids ``first`` and
``again``: neither run may depend on an earlier simulation in the
process.

If a test fails after an *intentional* protocol change, regenerate the
fixtures and review the diff like code::

    python scripts/regen_goldens.py
"""

import difflib
import json
from pathlib import Path

import pytest

from repro.obs.golden import GOLDEN_SCENARIOS, SCENARIO_FUNCTIONS

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"

RUNS = ("first", "again")


def _fixture_lines(name):
    path = FIXTURE_DIR / GOLDEN_SCENARIOS[name]
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        "'python scripts/regen_goldens.py'"
    )
    return path.read_text().splitlines()


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_trace_matches_golden_fixture(name, run):
    actual = SCENARIO_FUNCTIONS[name]()
    expected = _fixture_lines(name)
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected, actual,
                fromfile=f"tests/fixtures/golden/{GOLDEN_SCENARIOS[name]}",
                tofile=f"{name} (re-run)",
                lineterm="", n=2,
            )
        )
        pytest.fail(
            f"golden trace {name!r} diverged from the committed fixture.\n"
            "If this protocol change is INTENTIONAL, regenerate with\n"
            "    python scripts/regen_goldens.py\n"
            "and commit the fixture diff after reviewing it like code.\n"
            f"First 60 diff lines:\n"
            + "\n".join(diff.splitlines()[:60])
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_fixture_lines_are_canonical_jsonl(name):
    """Committed fixtures are valid, canonically-serialised JSONL."""
    for line in _fixture_lines(name):
        event = json.loads(line)
        assert {"actor", "cat", "name", "t"} <= set(event)
        canonical = json.dumps(
            event, sort_keys=True, separators=(",", ":")
        )
        assert line == canonical

    # timestamps are non-decreasing: the trace is a timeline
    times = [json.loads(line)["t"] for line in _fixture_lines(name)]
    assert times == sorted(times)


def test_publish_lookup_covers_fig2_chain():
    """The 5-peer fixture exercises the paper's Figure 2 walkthrough:
    publish -> SRDI push -> replica index -> remote query -> walk to
    the replica -> forward to the publisher -> response -> completion."""
    lines = _fixture_lines("publish-lookup5")
    names = [json.loads(line)["name"] for line in lines]
    for required in (
        "publish", "push", "index", "query.issued", "query.sent",
        "query.handled", "forward.replica", "forward.publisher",
        "response.sent", "query.completed",
    ):
        assert required in names, f"fixture lost the {required!r} step"
    assert names.index("publish") < names.index("push")
    assert names.index("push") < names.index("query.issued")
    assert names.index("forward.replica") < names.index("forward.publisher")
    assert names.index("response.sent") < names.index("query.completed")
