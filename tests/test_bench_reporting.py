"""Benchmark reporting helpers."""

import os

import pytest

from repro.bench import (
    bench_scale,
    format_series,
    format_table,
    scaled,
    write_result,
)
from repro.mpp.plannodes import DistDesc, PhysicalNode


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"], [("a", 1), ("bbbb", 22.5)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) == {"-"}
        assert "22.50" in lines[3]

    def test_title(self):
        text = format_table(["x"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(["v"], [(0.00123,), (12.3456,), (1234.5,), (0.0,)])
        assert "0.001" in text and "12.35" in text and "1234" in text


def test_format_series():
    text = format_series("probkb", [(1, 0.5), (2, 1.0)], "n", "s")
    assert text.startswith("probkb [n -> s]:")
    assert "(1, 0.500)" in text and "(2, 1.00)" in text


def test_write_result(tmp_path, monkeypatch, capsys):
    import repro.bench.reporting as reporting

    monkeypatch.setattr(reporting, "results_dir", lambda: str(tmp_path))
    path = write_result("unit_test_report", "hello world")
    assert os.path.exists(path)
    with open(path) as handle:
        assert handle.read().strip() == "hello world"
    assert "hello world" in capsys.readouterr().out


class TestScaling:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        assert scaled(100) == 100

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5
        assert scaled(100) == 250

    def test_invalid_scale_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "lots")
        assert bench_scale() == 1.0

    def test_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert scaled(100) == 1


class TestPhysicalNode:
    def test_explain_tree(self):
        leaf = PhysicalNode("Seq Scan", "on t", rows=10, seconds=0.001)
        root = PhysicalNode("Hash Join", children=[leaf], rows=5, seconds=0.002)
        text = root.explain()
        assert text.splitlines()[0].startswith("Hash Join")
        assert text.splitlines()[1].strip().startswith("Seq Scan on t")

    def test_total_seconds_and_find(self):
        leaf = PhysicalNode("Seq Scan", seconds=0.5)
        mid = PhysicalNode("Redistribute Motion", children=[leaf], seconds=0.25)
        root = PhysicalNode("Hash Join", children=[mid], seconds=0.25)
        assert root.total_seconds() == pytest.approx(1.0)
        assert len(root.find_all("Seq Scan")) == 1
        assert root.find_all("Broadcast Motion") == []


class TestDistDesc:
    def test_factories(self):
        assert DistDesc.arbitrary().kind == "arbitrary"
        assert DistDesc.hash_on(("x",)).columns == ("x",)
