"""CLI tests: every subcommand end to end over a temp KB directory."""

import re

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def kb_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("kb"))
    assert main(["generate", "--out", directory, "--people", "60", "--seed", "3"]) == 0
    return directory


def test_generate_writes_tsv(kb_dir, capsys):
    import os

    files = set(os.listdir(kb_dir))
    assert {"facts.tsv", "rules.tsv", "classes.tsv", "constraints.tsv"} <= files


def test_stats(kb_dir, capsys):
    assert main(["stats", "--kb", kb_dir]) == 0
    out = capsys.readouterr().out
    assert "# facts" in out and "# rules" in out


def test_sql(kb_dir, capsys):
    assert main(["sql", "--kb", kb_dir]) == 0
    out = capsys.readouterr().out
    assert "SELECT" in out and "Query 3" in out


def test_ground_and_export(kb_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "expanded")
    code = main(
        ["ground", "--kb", kb_dir, "--iterations", "4", "--out", out_dir]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "iteration 1" in out and "new facts" in out
    from repro.datasets import load_kb

    expanded = load_kb(out_dir)
    # quality control prunes violating entities while expansion adds
    # inferred (NULL-weight) facts — check both effects are present
    assert expanded.facts
    assert any(fact.weight is None for fact in expanded.facts)


def test_ground_mpp_semi_naive(kb_dir, capsys):
    code = main(
        [
            "ground",
            "--kb",
            kb_dir,
            "--backend",
            "mpp",
            "--nseg",
            "4",
            "--semi-naive",
            "--iterations",
            "3",
        ]
    )
    assert code == 0


@pytest.mark.parametrize(
    "engine, summary",
    [
        ("gibbs", r"engine=gibbs components=\d+ colors=\d+ "),
        ("bp", r"engine=bp components=- colors=- "),
    ],
    ids=["gibbs", "bp"],
)
def test_infer(kb_dir, capsys, engine, summary):
    code = main(
        [
            "infer", "--kb", kb_dir, "--iterations", "3", "--sweeps", "60",
            "--top", "5", "--engine", engine,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert re.match(summary + r"wall=\d+\.\d{3}s$", out.splitlines()[0])
    assert "inferred facts" in out and "P=" in out


def test_infer_rejects_an_unknown_engine(kb_dir, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["infer", "--kb", kb_dir, "--engine", "nope"])
    assert exited.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_evaluate(capsys):
    code = main(
        [
            "evaluate",
            "--seed",
            "3",
            "--people",
            "60",
            "--theta",
            "0.5",
            "--constraints",
            "--iterations",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "precision" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command", ["ground", "infer", "serve"])
def test_an_iteration_cap_below_one_is_a_usage_error(kb_dir, command, capsys):
    """It used to ground nothing and report ``converged=False``."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--kb", kb_dir, "--iterations", "-1"])
    assert exit_info.value.code == 2
    assert "max_iterations must be >= 1, got -1" in capsys.readouterr().err
