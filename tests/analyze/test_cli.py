"""`repro analyze` end to end over on-disk KBs."""

import json
import warnings

import pytest

from repro.analyze import AnalysisWarning
from repro.cli import main
from repro.datasets import load_kb, paper_kb, save_kb

from .conftest import good_rule, make_kb, rule


@pytest.fixture
def clean_dir(tmp_path):
    directory = str(tmp_path / "clean")
    save_kb(paper_kb(with_constraints=True), directory)
    return directory


@pytest.fixture
def broken_dir(tmp_path):
    directory = str(tmp_path / "broken")
    bad = rule(
        ("live_in", "x", "y"),
        [("teleports_to", "x", "y")],
        {"x": "Person", "y": "City"},
    )
    save_kb(make_kb(rules=[good_rule(), bad]), directory)
    return directory


def test_analyze_clean_kb_exits_zero(clean_dir, capsys):
    assert main(["analyze", "--kb", clean_dir]) == 0
    out = capsys.readouterr().out
    assert "0 errors" in out


def test_analyze_broken_kb_exits_nonzero(broken_dir, capsys):
    assert main(["analyze", "--kb", broken_dir]) == 1
    out = capsys.readouterr().out
    assert "PKB001" in out
    assert "teleports_to" in out


def test_analyze_json_output(broken_dir, capsys):
    assert main(["analyze", "--kb", broken_dir, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] >= 1
    assert any(f["code"] == "PKB001" for f in payload["findings"])


def test_load_kb_warns_on_broken_directory(broken_dir):
    with pytest.warns(AnalysisWarning, match="PKB001"):
        load_kb(broken_dir)


def test_load_kb_strict_vs_off(broken_dir):
    from repro.analyze import AnalysisError

    with pytest.raises(AnalysisError):
        load_kb(broken_dir, analysis="strict")
    with warnings.catch_warnings():
        warnings.simplefilter("error", AnalysisWarning)
        kb = load_kb(broken_dir, analysis="off")
    assert len(kb.rules) == 2


@pytest.fixture
def warned_dir(tmp_path):
    """A KB with warnings (a duplicate rule, PKB008) but no errors."""
    directory = str(tmp_path / "warned")
    save_kb(make_kb(rules=[good_rule(), good_rule()]), directory)
    return directory


def test_fail_on_error_tolerates_warnings(warned_dir, capsys):
    assert main(["analyze", "--kb", warned_dir]) == 0
    assert "PKB008" in capsys.readouterr().out


def test_fail_on_warn_gates_warnings(warned_dir, capsys):
    assert main(["analyze", "--kb", warned_dir, "--fail-on", "warn"]) == 1
    assert "PKB008" in capsys.readouterr().out


def test_analyze_missing_kb_exits_two(tmp_path, capsys):
    assert main(["analyze", "--kb", str(tmp_path / "nowhere")]) == 2


def test_explain_renders_plan_trees(clean_dir, capsys):
    assert main(["explain", "--kb", clean_dir]) == 0
    out = capsys.readouterr().out
    assert "static plan analysis" in out
    assert "Query 1-1" in out and "Query 2-1" in out
    assert "Seq Scan" in out
    assert "total estimated" in out


def test_explain_single_backend_has_no_motions(clean_dir, capsys):
    assert main(["explain", "--kb", clean_dir, "--backend", "single"]) == 0
    out = capsys.readouterr().out
    assert "backend=single" in out
    assert "Motion" not in out


def test_explain_json_round_trips(clean_dir, capsys):
    assert main(["explain", "--kb", clean_dir, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["environment"] == {
        "kind": "mpp",
        "num_segments": 8,
        "use_matviews": True,
    }
    names = [q["name"] for q in payload["queries"]]
    assert names and all(name.startswith("Query ") for name in names)
    assert payload["total_estimated_seconds"] == pytest.approx(
        sum(q["estimated_seconds"] for q in payload["queries"])
    )


def test_ground_strict_refuses_broken_kb(broken_dir, tmp_path, capsys):
    code = main(
        [
            "ground",
            "--kb",
            broken_dir,
            "--analysis",
            "strict",
            "--out",
            str(tmp_path / "never"),
        ]
    )
    assert code != 0
