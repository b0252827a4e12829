"""Property-based tests: time-series reconstruction invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.series import StepSeries, peerview_size_series
from repro.obs.tracer import TimelineTracer

events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.sampled_from(["view.add", "view.remove"]),
    ),
    min_size=0,
    max_size=60,
)


@given(events)
def test_series_final_value_equals_event_balance(evs):
    log = TimelineTracer()
    # only record removes that keep the running size >= 0 (a PeerView
    # can never emit a remove without a prior add)
    size = 0
    kept = []
    for t, kind in sorted(evs):
        if kind == "view.remove" and size == 0:
            continue
        size += 1 if kind == "view.add" else -1
        kept.append((t, kind))
        log.record(t, "peerview", kind, "rdv-0", {"peer": "x"})
    series = peerview_size_series(log, "rdv-0")
    assert series.final == size
    assert min(series.values) >= 0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    ),
    st.floats(min_value=-5.0, max_value=110.0, allow_nan=False),
)
def test_value_at_returns_last_step_at_or_before(points, query_t):
    points = sorted(points, key=lambda p: p[0])
    series = StepSeries([p[0] for p in points], [p[1] for p in points])
    expected = 0.0
    for t, v in points:
        if t <= query_t:
            expected = v
    assert series.value_at(query_t) == expected
