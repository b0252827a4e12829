"""The ``--profile`` flag must work for any experiment subcommand."""

import pstats

from repro.experiments import cli


def test_profile_flag_dumps_stats_and_reports(tmp_path, capsys):
    out = tmp_path / "table1.prof"
    rc = cli.main(
        ["table1", "--profile", "--profile-out", str(out), "--profile-top", "3"]
    )
    assert rc == 0
    assert out.exists() and out.stat().st_size > 0

    captured = capsys.readouterr().out
    assert "profile: top 3 functions by cumulative time" in captured
    assert f"profile dumped to {out}" in captured

    # the dump is a loadable cProfile stats file with real entries
    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0


def test_profile_default_dump_location(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["table1", "--profile", "--profile-top", "1"])
    assert rc == 0
    assert (tmp_path / "profile-table1.prof").exists()



def test_profile_out_is_suffixed_per_experiment(tmp_path, capsys, monkeypatch):
    """'all' writes one profile per experiment, named like --metrics-out's."""
    names = ("table1", "transport")
    monkeypatch.setattr(cli, "EXPERIMENTS", {n: cli.EXPERIMENTS[n] for n in names})
    out = tmp_path / "run.prof"
    assert cli.main(["all", "--profile", "--profile-out", str(out)]) == 0
    for name in names:
        assert pstats.Stats(str(tmp_path / f"run-{name}.prof")).total_calls > 0
    assert not out.exists()
