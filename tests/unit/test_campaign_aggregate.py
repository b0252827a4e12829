"""Unit tests for multi-seed aggregation."""

import math

from repro.campaign.aggregate import (
    AggregateRow,
    aggregate_records,
    mean_std_ci,
    render_aggregate_table,
    write_aggregates,
)
from repro.campaign.tasks import _row_metrics
from repro.metrics.series import elementwise_mean_std


def record(seed, result, params=None, status="ok", key=None):
    params = dict(params or {}, seed=seed)
    return {
        "key": key or f"k{seed}-{sorted(params.items())}",
        "task": "t",
        "params": params,
        "status": status,
        "result": result,
    }


class TestMeanStdCi:
    def test_single_value(self):
        assert mean_std_ci([3.0]) == (3.0, 0.0, 0.0)

    def test_known_values(self):
        mean, std, ci = mean_std_ci([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == math.sqrt(1.0)  # sample variance of 1,2,3 is 1
        assert abs(ci - 1.959963984540054 * 1.0 / math.sqrt(3)) < 1e-12


class TestElementwiseMeanStd:
    def test_mean_and_std(self):
        means, stds = elementwise_mean_std([[1.0, 10.0], [3.0, 10.0]])
        assert means == [2.0, 10.0]
        assert abs(stds[0] - math.sqrt(2.0)) < 1e-12
        assert stds[1] == 0.0

    def test_single_row_has_zero_std(self):
        means, stds = elementwise_mean_std([[5.0, 6.0]])
        assert means == [5.0, 6.0]
        assert stds == [0.0, 0.0]


class TestAggregateRecords:
    def test_groups_by_params_minus_seed(self):
        records = [
            record(1, {"m": 1.0}, params={"r": 10}),
            record(2, {"m": 3.0}, params={"r": 10}),
            record(1, {"m": 100.0}, params={"r": 20}),
        ]
        rows, _ = aggregate_records(records, campaign="c")
        by_group = {(r.group, r.metric): r for r in rows}
        assert by_group[("r=10", "m")].n == 2
        assert by_group[("r=10", "m")].mean == 2.0
        assert by_group[("r=20", "m")].n == 1

    def test_bool_metrics_become_rates(self):
        records = [
            record(1, {"ok": True}, params={"r": 1}),
            record(2, {"ok": False}, params={"r": 1}),
        ]
        rows, _ = aggregate_records(records)
        assert rows[0].mean == 0.5

    def test_non_ok_records_excluded(self):
        records = [
            record(1, {"m": 1.0}, params={"r": 1}),
            record(2, None, params={"r": 1}, status="error"),
        ]
        rows, _ = aggregate_records(records)
        assert rows[0].n == 1

    def test_series_aggregated_elementwise_with_times_axis(self):
        records = [
            record(1, {"series_times": [0.0, 60.0],
                       "series_values": [0.0, 2.0]}, params={"r": 1}),
            record(2, {"series_times": [0.0, 60.0],
                       "series_values": [0.0, 4.0]}, params={"r": 1}),
        ]
        rows, series = aggregate_records(records)
        assert rows == []  # series_times is the axis, not a metric
        (agg,) = series
        assert agg.metric == "series_values"
        assert agg.xs == [0.0, 60.0]
        assert agg.mean == [0.0, 3.0]

    def test_ragged_series_skipped(self):
        records = [
            record(1, {"v": [1.0, 2.0]}, params={"r": 1}),
            record(2, {"v": [1.0]}, params={"r": 1}),
        ]
        rows, series = aggregate_records(records)
        assert series == []

    def test_deterministic_output_order(self):
        records = [
            record(s, {"m": float(s)}, params={"r": r})
            for r in (20, 10) for s in (2, 1, 3)
        ]
        first, _ = aggregate_records(records)
        second, _ = aggregate_records(list(reversed(records)))
        assert first == second


class TestWriteAggregates:
    def records(self):
        return [
            record(s, {"m": float(s), "series_times": [0.0, 1.0],
                       "series_values": [0.0, float(s)]},
                   params={"r": 10})
            for s in (1, 2)
        ]

    def test_files_routed_through_exporters(self, tmp_path):
        written = write_aggregates("camp", self.records(), tmp_path)
        names = {p.name for p in written}
        assert names == {
            "camp-aggregate.csv", "camp-series_values.csv",
            "camp-aggregate.json",
        }
        header = (tmp_path / "camp-aggregate.csv").read_text().splitlines()[0]
        assert header == "campaign,group,metric,n,mean,std,ci95"
        series_header = (
            tmp_path / "camp-series_values.csv"
        ).read_text().splitlines()[0]
        assert series_header == "x,r=10:mean,r=10:std"

    def test_byte_identical_across_input_order(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_aggregates("camp", self.records(), a)
        write_aggregates("camp", list(reversed(self.records())), b)
        for name in ("camp-aggregate.csv", "camp-series_values.csv",
                     "camp-aggregate.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestRenderAggregateTable:
    def test_contains_groups_and_cis(self):
        rows = [AggregateRow("c", "r=10", "m", 3, 2.0, 1.0, 1.13)]
        text = render_aggregate_table(rows)
        assert "r=10" in text and "±1.13" in text


def _ablation_point(mean_l=29.0):
    from repro.experiments.ablation import AblationPoint

    return AblationPoint(
        r=30, pve_expiration=600.0, peerview_interval=30.0, min_l=29,
        mean_l=mean_l, property_2=True, bandwidth_bps_per_rdv=100.0,
    )


class TestExperimentSeedRecords:
    """The ``experiment`` task returns its result rows' numeric fields,
    so a seed spread is an ordinary campaign aggregate."""

    def test_dataclass_rows_become_records(self):
        records = [
            record(seed, _row_metrics([_ablation_point(mean_l)]), {"name": "ablation"})
            for seed, mean_l in ((1, 29.0), (2, 28.0))
        ]
        rows, _ = aggregate_records(records, campaign="ablation")
        (mean_l,) = [r for r in rows if r.metric == "00.mean_l"]
        assert mean_l.n == 2 and mean_l.mean == 28.5
        assert {r.metric for r in rows} >= {"00.property_2", "00.r"}

    def test_single_dataclass_result(self):
        point = _ablation_point()
        assert _row_metrics(point) == _row_metrics([point])
        assert _row_metrics(point)["00.mean_l"] == 29.0

    def test_label_attribute_used_when_present(self):
        from repro.experiments.fig3_left import Fig3LeftSeries
        from repro.metrics.series import StepSeries

        row = Fig3LeftSeries(r=10, topology="chain", duration=600.0,
                             series=StepSeries([0.0], [0.0]), final_sizes=[9])
        assert _row_metrics([row]) == {
            "10-chain.r": 10.0, "10-chain.duration": 600.0,
        }
