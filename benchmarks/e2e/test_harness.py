"""Checks of the benchmark harness itself, at 1/4 scale.

Run explicitly (tier-1 ``testpaths`` is ``tests/``)::

    python -m pytest benchmarks/e2e/test_harness.py -q

Every workload runs once through the command line, traced (one untraced
and one traced repetition), so one pass yields the end-to-end metrics,
the per-layer metrics, the exact counts and the span file.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = "0.25"
SEED = "4"

for path in (os.path.join(ROOT, "src"), os.path.dirname(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from e2e import compare, stats  # noqa: E402
from e2e.metrics import END_TO_END, PER_LAYER  # noqa: E402
from e2e.workloads import NAMES  # noqa: E402


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(*args, cwd=ROOT, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    # the runner must clear these itself
    env.update(PROBKB_EXECUTOR="rows", PROBKB_NO_NUMPY="1", REPRO_BENCH_SCALE="7")
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def traced_run(name, out, hashseed="0", golden=None):
    args = [
        "--workload", name, "--seed", SEED, "--seconds", "0", "--trace", "1",
        "--scale", SCALE, "--out", out,
    ]  # fmt: skip
    if golden:
        args += ["--golden", golden]
    return run_cli(*args, hashseed=hashseed)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (completed process, full result) for all four workloads."""
    folder = tmp_path_factory.mktemp("e2e")
    started = time.perf_counter()
    results = {}
    for name in NAMES:
        out = str(folder / f"{name}.json")
        done = traced_run(name, out)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        with open(out, encoding="utf-8") as handle:
            results[name] = (done, json.load(handle))
    results["elapsed"] = time.perf_counter() - started
    return results


def test_quarter_scale_finishes_quickly(runs):
    assert runs["elapsed"] < 20.0


def test_result_line_follows_the_contract(runs):
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    for name in NAMES:
        done, _ = runs[name]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        for value in line["metrics"].values():
            assert isinstance(value["value"], (int, float))


def test_every_metric_emitted_once_with_its_unit(runs):
    spec = benchmark_json()
    for name in NAMES:
        done, result = runs[name]
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {k: v["unit"] for k, v in result[section].items()}
            assert emitted == declared, (name, section)
        printed = [line.split()[0] for line in done.stdout.splitlines()[1:-1]]
        for metric in spec["per_layer"]:
            assert printed.count(metric["name"]) == 1, (name, metric["name"])
        for metric in spec["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["value"] > 0, (name, metric)


def test_layers_a_workload_bypasses_read_zero(runs):
    layer = lambda name, metric: runs[name][1]["per_layer"][metric]["value"]  # noqa: E731
    assert layer("reverb_nosc", "infer.engine_s") == 0
    assert layer("reverb_nosc", "core.query3_removed_facts") == 0
    assert layer("reverb_sc", "infer.engine_s") > 0
    assert layer("reverb_sc", "mpp.motions") == 0
    assert layer("mpp_s2", "mpp.motions") > 0
    assert layer("mpp_s2", "mpp.pooled_expand_wall_s") > 0
    assert layer("serve_mixed", "serve.flushes") > 0
    assert layer("serve_mixed", "serve.ingest_visible_p50_ms") > 0
    # 2 x 12 flushes at this scale: too few to carry a p90 (ten beyond)
    assert layer("serve_mixed", "serve.ingest_visible_p90_ms") == 0
    for name in NAMES:
        assert layer(name, "trace.attributed_ratio") >= 0.9


def test_benchmark_json_matches_the_metric_tables_and_contract():
    spec = benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert 1 <= spec["run_seconds"] <= 60 and len(spec["per_layer"]) <= 128


def test_spans_nest_and_self_times_fit_the_wall(runs):
    for name in NAMES:
        path = os.path.join(HERE, "out", f"trace-{name}-seed{SEED}.jsonl")
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans
        by_id = {(s["run"], s["id"]): s for s in spans}
        roots = 0.0
        for span in spans:
            assert NAME.match(span["name"])
            assert span["self"] >= -1e-9 and span["end"] >= span["start"]
            if span["parent"] is None:
                roots += span["end"] - span["start"]
                continue
            parent = by_id[(span["run"], span["parent"])]
            assert parent["start"] <= span["start"] + 1e-9
            assert span["end"] <= parent["end"] + 1e-9
        assert sum(s["self"] for s in spans) <= roots + 1e-6


def test_counts_repeat_exactly_across_processes(runs, tmp_path):
    out = str(tmp_path / "again.json")
    done = traced_run("reverb_sc", out, hashseed="12345")
    assert done.returncode == 0, done.stdout[-3000:]
    with open(out, encoding="utf-8") as handle:
        again = json.load(handle)
    first = runs["reverb_sc"][1]
    assert again["counts"] == first["counts"]
    assert first["golden_checked"] and again["golden_checked"]
    exact = [m.name for m in PER_LAYER if m.unit == "count" and m.name != "trace.spans"]
    for metric in exact:
        assert again["per_layer"][metric] == first["per_layer"][metric], metric


def test_corrupted_golden_count_fails_the_run(tmp_path):
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    golden[f"reverb_sc@{SCALE}"]["every_seed"]["factors"] += 1
    corrupted = str(tmp_path / "golden.json")
    with open(corrupted, "w", encoding="utf-8") as handle:
        json.dump(golden, handle)
    done = traced_run("reverb_sc", str(tmp_path / "out.json"), golden=corrupted)
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1
    assert "golden factors" in done.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(
        HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "reverb_sc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_percentile_helper_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.samples_beyond(100, 90) == 10
    assert stats.supported_percentile(samples, 90) == 90
    assert stats.supported_percentile(samples, 95) == 0.0  # 5 beyond
    assert stats.supported_percentile(samples[:99], 90) == 0.0  # 9 beyond
    assert stats.supported_percentile(list(range(1, 201)), 95) == 190
    assert stats.supported_percentile(list(range(1, 1001)), 99) == 990
    assert stats.supported_percentile(list(range(1, 1000)), 99) == 0.0


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [10.2, 10.3, 10.1, 10.2], "lower", 0.10)[0] == "within"
    assert compare.verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0], "lower", 0.10)[0] == "better"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher", 0.10)[0] == "worse"
    noisy = [8.0, 12.0, 9.0, 11.0]
    assert compare.verdict(steady, noisy, "lower", 0.10)[0] == "unresolved"
    # wide spread, but every repetition of B beats every one of A
    assert compare.verdict(noisy, [5.0, 7.0, 6.0, 5.5], "lower", 0.10)[0] == "better"


def test_compare_exit_code(tmp_path):
    def results(wall):
        rows = {
            m.name: {"value": 1.0, "unit": m.unit, "reps": [1.0, 1.0, 1.0]}
            for m in END_TO_END
        }
        rows["expand_wall_s"] = {"value": wall, "unit": "s", "reps": [wall] * 3}
        return {
            "environment": {"git_sha": "x", "nproc": 2},
            "seed": 4,
            "scale": 1.0,
            "workloads": {
                "reverb_sc": {"end_to_end": rows, "error_rate": 0.0, "counts": {"facts": 1}}
            },
        }

    for label, wall in (("a", 1.0), ("b", 1.05), ("c", 1.5)):
        with open(tmp_path / f"{label}.json", "w", encoding="utf-8") as handle:
            json.dump(results(wall), handle)
    same = run_cli("--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert same.returncode == 0 and "within" in same.stdout
    slower = run_cli("--compare", str(tmp_path / "a.json"), str(tmp_path / "c.json"))
    assert slower.returncode != 0 and "worse" in slower.stdout
