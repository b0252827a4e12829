"""CLI wiring tests: ``jxta-repro sweep`` and ``--seeds N``."""

import pytest

from repro.experiments import cli as experiments_cli


class TestSweepDelegation:
    def test_sweep_list_via_main_entry(self, capsys):
        """'jxta-repro sweep --list' reaches the campaign CLI."""
        assert experiments_cli.main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "ablation", "churn", "all"):
            assert name in out

    def test_sweep_rejects_unknown_campaign(self, capsys):
        with pytest.raises(SystemExit):
            experiments_cli.main(["sweep", "not-a-campaign"])

    def test_sweep_absent_without_subcommand(self, capsys):
        """The classic entry still rejects 'sweep'-less unknown names."""
        with pytest.raises(SystemExit):
            experiments_cli.main(["not-an-experiment"])


class TestSeedsOption:
    def test_seeds_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            experiments_cli.main(["table1", "--seeds", "0"])

    def test_metrics_out_needs_a_single_run(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            experiments_cli.main(
                ["table1", "--seeds", "2", "--metrics-out", str(tmp_path / "m.json")]
            )

    def test_cross_seed_spread_printed_and_exported(self, tmp_path, capsys):
        rc = experiments_cli.main(
            ["table1", "--seeds", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cross-seed spread over seeds 1..2" in out
        assert "lookup_latency_ms" in out
        spread = tmp_path / "table1-seeds.csv"
        assert spread.exists()
        header = spread.read_text().splitlines()[0]
        assert header == "campaign,group,metric,n,mean,std,ci95"
