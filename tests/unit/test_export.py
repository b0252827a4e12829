"""Unit tests for the metrics export helpers."""

from repro.metrics.export import series_to_csv


class TestSeriesCsv:
    def test_columns_written(self, tmp_path):
        path = tmp_path / "series.csv"
        rows = series_to_csv(
            "t", [0.0, 1.0], {"a": [1.0, 2.0], "b": [3.0, 4.0]}, path
        )
        assert rows == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "t,a,b"
        assert lines[1] == "0.0,1.0,3.0"
        assert lines[2] == "1.0,2.0,4.0"

    def test_ragged_series_padded(self, tmp_path):
        path = tmp_path / "ragged.csv"
        series_to_csv("t", [0.0, 1.0], {"a": [1.0]}, path)
        lines = path.read_text().splitlines()
        assert lines[2].endswith(",")
