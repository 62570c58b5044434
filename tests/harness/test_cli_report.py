"""CLI entry point and the EXPERIMENTS.md report machinery."""

import pytest

from repro.__main__ import main
from repro.harness.experiments.base import all_experiment_ids
from repro.harness.report import PAPER_CLAIMS


def test_cli_datasets(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "rmat-s10" in out and "friendster" in out


def test_cli_experiments(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig4a" in out and "table8" in out


def test_cli_match(capsys):
    assert main(["match", "rmat-s10", "-p", "4", "-m", "ncl"]) == 0
    out = capsys.readouterr().out
    assert "simulated time" in out
    assert "matching:" in out


def test_cli_run_cheap_experiment(capsys):
    assert main(["run", "table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "Findings" in out


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_match_rejects_unknown_model():
    with pytest.raises(SystemExit):
        main(["match", "rmat-s10", "-m", "smoke-signals"])


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["match", "no-such-graph"], "dataset"),
        (["profile", "no-such-graph"], "dataset"),
        (["chaos", "no-such-graph"], "dataset"),
        (["run", "no-such-graph"], "experiment"),
    ],
    ids=["match", "profile", "chaos", "run"],
)
def test_cli_unknown_name_is_one_line_not_a_traceback(argv, kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"unknown {kind} 'no-such-graph'; have [")
    assert err.count("\n") == 1


def test_paper_claims_cover_all_experiments():
    """Every registered experiment must have a paper-claim entry for the
    EXPERIMENTS.md report."""
    missing = [e for e in all_experiment_ids() if e not in PAPER_CLAIMS]
    assert not missing, f"experiments without paper claims: {missing}"


def test_report_generation(tmp_path, monkeypatch):
    """Generate a report restricted to cheap experiments."""
    import repro.harness.report as report_mod

    cheap = ["table2", "table3"]
    monkeypatch.setattr(
        report_mod, "all_experiment_ids", lambda: cheap
    )
    out = report_mod.generate_experiments_md(tmp_path / "EXP.md")
    assert "table2" in out and "table3" in out
    assert (tmp_path / "EXP.md").exists()
    assert "Paper:" in out and "Measured:" in out


def test_cli_match_help_lists_recovery_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["match", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--churn-mtbf", "--churn-horizon", "--spares",
                 "--replicas", "--checkpoint-interval", "--crash"):
        assert flag in out, f"match --help lost {flag}"


def test_cli_chaos_help_lists_churn_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--restart", "--churn", "--mtbf", "--spares",
                 "--replicas", "--csv"):
        assert flag in out, f"chaos --help lost {flag}"


def test_cli_match_churn_needs_horizon_and_spares():
    base = ["match", "rmat-s10", "-p", "4", "-m", "ncl"]
    with pytest.raises(SystemExit, match="churn-horizon"):
        main(base + ["--churn-mtbf", "1e-4"])
    with pytest.raises(SystemExit, match="spares"):
        main(base + ["--churn-mtbf", "1e-4", "--churn-horizon", "4e-4"])


def test_cli_match_spares_need_checkpoint():
    with pytest.raises(SystemExit, match="rollback-recovery"):
        main(["match", "rmat-s10", "-p", "4", "-m", "ncl", "--spares", "2"])


def test_cli_match_recovery_run_prints_summary(capsys):
    rc = main([
        "match", "rmat-s10", "-p", "4", "-m", "ncl",
        "--crash", "1:4e-4", "--spares", "2",
        "--checkpoint-interval", "1.15e-4",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recovery: 1 rollbacks" in out
    assert "spares used" in out
    assert "matching:" in out


def test_cli_match_unrecoverable_run_reports_reason(capsys):
    # replicas=0 makes any crash unsurvivable: the CLI must exit 1 with
    # the classified reason + per-cut report, not a traceback.
    rc = main([
        "match", "rmat-s10", "-p", "4", "-m", "ncl",
        "--crash", "1:4e-4", "--spares", "2", "--replicas", "0",
        "--checkpoint-interval", "1.15e-4",
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "recovery failed: no-complete-cut" in out
    assert "slice 1 lost" in out


@pytest.mark.parametrize(
    "line",
    ['model = "banana"', 'nprocs = "4"', 'engine = "turbo"'],
    ids=["model", "nprocs", "engine"],
)
def test_cli_config_value_checked_like_its_flag(line, tmp_path, capsys):
    """A --config value meets its flag's type= / choices=: a bad one is
    one stderr line naming the file and key, exit status 2 — not a
    traceback from deep inside the run."""
    path = tmp_path / "bad.toml"
    path.write_text(f"[match]\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["match", "rmat-s10", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: {line.split()[0]} = ")
    assert err.count("\n") == 1
