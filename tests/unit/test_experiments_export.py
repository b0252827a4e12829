"""Unit tests for the experiment result exporter."""

import json
from pathlib import Path

import pytest

from repro.experiments.export import _csv_cell, save_results
from repro.experiments.fig3_left import Fig3LeftSeries
from repro.experiments.fig3_right import Fig3RightResult
from repro.experiments.fig4_left import Fig4LeftResult
from repro.experiments.fig4_right import Fig4RightPoint
from repro.metrics.series import StepSeries


class TestCurveListExport:
    def test_fig3_left_csv(self, tmp_path):
        results = [
            Fig3LeftSeries(
                r=10, topology="chain", duration=600.0,
                series=StepSeries([0.0, 120.0], [0.0, 9.0]),
                final_sizes=[9] * 10,
            ),
            Fig3LeftSeries(
                r=45, topology="chain", duration=600.0,
                series=StepSeries([0.0, 240.0], [0.0, 44.0]),
                final_sizes=[44] * 45,
            ),
        ]
        written = save_results("fig3-left", results, tmp_path)
        assert written == [tmp_path / "fig3-left.csv"]
        lines = written[0].read_text().splitlines()
        assert lines[0] == "t_seconds,10-chain,45-chain"
        # a row every 2 minutes up to the run's end, not its last event
        assert len(lines) == 1 + 6


class TestFig4LeftExport:
    def test_two_column_csv(self, tmp_path):
        result = Fig4LeftResult(
            r=50, duration=600.0,
            default_series=StepSeries([0.0, 300.0], [0.0, 49.0]),
            tuned_series=StepSeries([0.0, 300.0], [0.0, 49.0]),
            tuned_expiration=5400.0,
        )
        written = save_results("fig4-left", result, tmp_path)
        lines = written[0].read_text().splitlines()
        assert lines[0] == "t_seconds,default,tuned"


class TestScatterExport:
    def test_fig3_right_rows(self, tmp_path):
        result = Fig3RightResult(
            r=10, duration=600.0, pve_expiration=1200.0,
            add_points=[(1.0, 1), (2.0, 2)],
            remove_points=[(500.0, 1)],
        )
        written = save_results("fig3-right", result, tmp_path)
        lines = written[0].read_text().splitlines()
        assert lines[0] == "time,rendezvous_number,event"
        assert len(lines) == 4
        assert lines[-1].endswith("remove")


class TestPointListExport:
    def test_fig4_right_columns(self, tmp_path):
        points = [
            Fig4RightPoint(
                r=5, configuration="A", mean_ms=12.8, success=1.0,
                samples=[], total_walk_steps=0,
            )
        ]
        written = save_results("fig4-right", points, tmp_path)
        lines = written[0].read_text().splitlines()
        assert lines[0] == "r,configuration,mean_ms,success,total_walk_steps"
        assert lines[1].startswith("5,A,12.8")


class TestCsvCell:
    """Direct coverage of the cell-reduction rules."""

    def test_scalars_pass_through(self):
        assert _csv_cell(3) == 3
        assert _csv_cell(2.5) == 2.5
        assert _csv_cell("x") == "x"
        assert _csv_cell(None) is None

    def test_nested_dataclass_reduces_to_name(self):
        import dataclasses

        @dataclasses.dataclass
        class Scenario:
            name: str
            intensity: float

        assert _csv_cell(Scenario(name="loss-10", intensity=0.1)) == "loss-10"

    def test_nameless_dataclass_falls_back_to_str(self):
        import dataclasses

        @dataclasses.dataclass
        class Point:
            x: int

        assert _csv_cell(Point(x=1)) == str(Point(x=1))

    def test_dataclass_type_not_reduced(self):
        """A dataclass *class* (not instance) is passed through."""
        import dataclasses

        @dataclasses.dataclass
        class Point:
            x: int

        assert _csv_cell(Point) is Point

    def test_dict_becomes_sorted_compact_json(self):
        cell = _csv_cell({"b": 2, "a": 1})
        assert cell == '{"a": 1, "b": 2}'
        assert json.loads(cell) == {"a": 1, "b": 2}

    def test_dict_cell_round_trips_through_csv(self, tmp_path):
        import dataclasses

        @dataclasses.dataclass
        class Row:
            r: int
            extras: dict

        written = save_results(
            "dictcell", [Row(r=1, extras={"k": "v"})], tmp_path
        )
        lines = written[0].read_text().splitlines()
        assert lines[0] == "r,extras"
        assert '""k"": ""v""' in lines[1]  # csv-quoted JSON payload


class TestFallbackJson:
    def test_unknown_shape_becomes_json(self, tmp_path):
        written = save_results("misc", {"a": 1}, tmp_path)
        assert written == [tmp_path / "misc.json"]
        assert json.loads(written[0].read_text()) == {"a": 1}

    def test_single_dataclass_keeps_json_safe_fields_only(self, tmp_path):
        import dataclasses

        @dataclasses.dataclass
        class Result:
            r: int
            label: str
            ok: bool
            ratio: float
            tags: list
            meta: dict
            series: object = None  # not JSON-serializable -> dropped

        result = Result(
            r=5, label="x", ok=True, ratio=0.5,
            tags=[1, 2], meta={"k": 1}, series=object(),
        )
        written = save_results("single", result, tmp_path)
        assert written == [tmp_path / "single.json"]
        data = json.loads(written[0].read_text())
        assert data == {
            "r": 5, "label": "x", "ok": True, "ratio": 0.5,
            "tags": [1, 2], "meta": {"k": 1},
        }

    def test_non_serializable_leaf_becomes_str(self, tmp_path):
        written = save_results("weird", {"path": Path("/tmp/x")}, tmp_path)
        data = json.loads(written[0].read_text())
        assert data == {"path": "/tmp/x"}

    def test_empty_list_falls_through_to_json(self, tmp_path):
        written = save_results("empty", [], tmp_path)
        assert written == [tmp_path / "empty.json"]
        assert json.loads(written[0].read_text()) == []
