"""Unit tests for the metrics subpackage."""

import pytest

from repro.advertisement.rdvadv import RdvAdvertisement
from repro.ids import NET_PEER_GROUP_ID, PeerID
from repro.metrics import (
    StepSeries,
    peerview_size_series,
    render_series,
    render_table,
    sample_at,
)
from repro.obs.tracer import PeerViewRecorder, TimelineTracer
from repro.rendezvous.peerview import PeerView


def adv(n):
    return RdvAdvertisement(
        rdv_peer_id=PeerID.from_int(NET_PEER_GROUP_ID, n),
        group_id=NET_PEER_GROUP_ID,
        route_hint=f"tcp://h{n}:1",
    )


class TestPeerviewLogger:
    def test_events_flow_into_log(self):
        log = TimelineTracer()
        view = PeerView(adv(50))
        view.add_listener(PeerViewRecorder(log, "rdv-50"))
        view.upsert(adv(10), now=1.0)
        view.remove(adv(10).rdv_peer_id, now=2.0)
        events = list(log.events)
        assert [(e.t, e.cat, e.name) for e in events] == [
            (1.0, "peerview", "view.add"), (2.0, "peerview", "view.remove"),
        ]
        assert events[0].actor == "rdv-50"
        assert events[0].args == {"peer": adv(10).rdv_peer_id.short()}


class TestStepSeries:
    def test_value_at(self):
        s = StepSeries([0.0, 10.0, 20.0], [0.0, 5.0, 3.0])
        assert s.value_at(-1.0) == 0.0
        assert s.value_at(0.0) == 0.0
        assert s.value_at(10.0) == 5.0
        assert s.value_at(15.0) == 5.0
        assert s.value_at(25.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSeries([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            StepSeries([1.0, 0.0], [1.0, 2.0])

    def test_max_and_time_of_max(self):
        s = StepSeries([0.0, 5.0, 10.0], [1.0, 9.0, 2.0])
        assert s.max() == 9.0
        assert s.time_of_max() == 5.0

    def test_reconstruction_from_log(self):
        log = TimelineTracer()
        log.record(1.0, "peerview", "view.add", "rdv-0", {"peer": "a"})
        log.record(2.0, "peerview", "view.add", "rdv-0", {"peer": "b"})
        log.record(2.5, "peerview", "view.add", "rdv-1", {"peer": "c"})
        log.record(3.0, "peerview", "view.remove", "rdv-0", {"peer": "a"})
        series = peerview_size_series(log, "rdv-0")
        assert series.value_at(0.5) == 0
        assert series.value_at(1.5) == 1
        assert series.value_at(2.5) == 2
        assert series.value_at(3.5) == 1

    def test_sample_at_grid(self):
        s = StepSeries([0.0, 10.0], [0.0, 4.0])
        xs, ys = sample_at(s, 0.0, 20.0, 5.0)
        assert xs == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert ys == [0.0, 0.0, 4.0, 4.0, 4.0]

    def test_sample_bad_step(self):
        with pytest.raises(ValueError):
            sample_at(StepSeries([0.0], [1.0]), 0.0, 1.0, 0.0)


class TestRenderers:
    def test_table_alignment(self):
        text = render_table(["a", "bee"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bee" in lines[0]
        assert "---" in lines[1]

    def test_series_render(self):
        text = render_series("t", [0.0, 1.0], {"l": [3.0, 4.0]})
        assert "t" in text and "l" in text
        assert "3.0" in text and "4.0" in text

    def test_table_with_no_rows(self):
        text = render_table(["a", "b"], [])
        lines = text.splitlines()
        assert len(lines) == 2  # header + separator only

    def test_series_with_ragged_columns(self):
        text = render_series("t", [0.0, 1.0], {"short": [9.0]})
        assert "9.0" in text  # missing cell rendered empty, no crash

    def test_series_custom_format(self):
        text = render_series("t", [0.123], {"v": [0.456]}, "{:.3f}")
        assert "0.123" in text and "0.456" in text
