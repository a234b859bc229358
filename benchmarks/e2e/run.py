#!/usr/bin/env python3
"""The end-to-end expansion benchmark.

    python benchmarks/e2e/run.py [--seed N]            # all four workloads
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` the process *is* the workload's fresh process: it
sets up the inputs from the seed, repeats the workload until ``--seconds``
of measuring have passed (at least three repetitions), checks every
repetition's outputs, prints each metric by name with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which alternates untraced and traced repetitions and
writes the spans to ``out/trace-<workload>-seed<N>.jsonl``).

Without ``--workload`` it runs every workload both ways, each in a
subprocess of its own, and writes the merged results (``--out``) that
``--compare`` reads.  Any failed check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
import warnings
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: switches that would take the program off its default production
#: configuration (columnar executor, numpy on, no debug gates)
HERMETIC_ENV = (
    "PROBKB_EXECUTOR",
    "PROBKB_NO_NUMPY",
    "PROBKB_VERIFY_PLANS",
    "PROBKB_SANITIZE",
    "REPRO_BENCH_SCALE",
)

DEFAULT_SEED = 4
#: measuring time of one run; BENCHMARK.json's ``run_seconds``
DEFAULT_SECONDS = 12
MIN_REPETITIONS = 3
SETUPS = 5

_clock = time.perf_counter


def bootstrap() -> None:
    """Make ``repro`` (the program, from this checkout's ``src/``) and
    the ``e2e`` package importable, on a clean environment."""
    for name in HERMETIC_ENV:
        os.environ.pop(name, None)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"no program to measure: {source}/repro is missing")
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [source, os.path.join(ROOT, "benchmarks")]
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {source}")
    from repro.analyze import AnalysisWarning

    # generated KBs carry deliberately defective rules; every load warns
    warnings.simplefilter("ignore", AnalysisWarning)


def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> Dict[str, Any]:
    import numpy

    from repro.api import BackendConfig, build_backend
    from repro.relational.columnar import numpy_enabled

    with build_backend(BackendConfig()) as backend:
        executor = backend.executor_info()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_enabled": numpy_enabled(),
        "executor": executor,
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


# -- one workload, in this process ---------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced_run: bool,
    scale: float,
    golden: Dict[str, Any],
) -> Dict[str, Any]:
    from e2e import check, workloads
    from e2e.metrics import PER_LAYER, UNITS
    from e2e.stats import median, percentile, pooled, supported_percentile
    from e2e.trace import write_jsonl

    checks = check.Checks()

    # the first set-up pays the generator's lazy imports: warm up, untimed
    fingerprints = {workloads.setup(name, seed, scale).fingerprint()}
    setup_seconds: List[float] = []
    for _ in range(SETUPS):
        started = _clock()
        inputs = workloads.setup(name, seed, scale)
        setup_seconds.append(_clock() - started)
        fingerprints.add(inputs.fingerprint())
    checks.equal("distinct inputs from one seed", len(fingerprints), 1)
    check.check_paper_example(checks)
    reference = workloads.reference_replay(inputs) if name == "serve_mixed" else None
    pinned = check.golden_counts(golden, name, scale, seed)

    reps: List[workloads.Rep] = []
    started = _clock()
    while True:
        gc.collect()
        traced = traced_run and len(reps) % 2 == 1
        rep = workloads.repetition(name, inputs, traced, len(reps), reference)
        check.check_counts(rep.checks, rep.counts, pinned)
        if reps:
            rep.checks.equal("counts of this repetition vs the first", rep.counts, reps[0].counts)
        reps.append(rep)
        if traced_run:
            done = len(reps) % 2 == 0
        else:
            done = len(reps) >= MIN_REPETITIONS
        if done and _clock() - started >= seconds:
            break

    plain = [rep for rep in reps if not rep.traced]

    def median_of(key: str) -> Any:
        readings = [rep.values[key] for rep in plain]
        return median(readings), readings

    # each entry: (the run's value, the per-repetition readings behind it)
    rss = workloads.peak_rss_mb(children=name == "mpp_s2")
    end_to_end = {
        "setup_s": (median(setup_seconds), setup_seconds),
        "expand_wall_s": median_of("expand_wall_s"),
        "ground_wall_s": median_of("ground_wall_s"),
        "serve_ops_per_s": median_of("serve_ops_per_s"),
        "peak_rss_mb": (rss, [rss]),
    }

    per_layer: Dict[str, float] = {}
    if traced_run:
        with_trace = [rep for rep in reps if rep.traced]
        for metric in PER_LAYER:
            per_layer[metric.name] = median(
                [rep.layers.get(metric.name, 0.0) for rep in with_trace]
            )
        ingest = pooled([rep.samples.get("ingest", []) for rep in reps])
        every_query = pooled([rep.samples["query"] for rep in reps])
        per_layer["serve.ingest_visible_p50_ms"] = (
            percentile(ingest, 50) * 1e3 if ingest else 0.0
        )
        per_layer["serve.ingest_visible_p90_ms"] = supported_percentile(ingest, 90) * 1e3
        uncached = pooled([rep.samples["query_uncached"] for rep in reps])
        per_layer["serve.query_uncached_p50_us"] = percentile(uncached, 50) * 1e6
        per_layer["serve.query_p95_us"] = supported_percentile(every_query, 95) * 1e6
        per_layer["serve.query_p99_us"] = supported_percentile(every_query, 99) * 1e6
        per_layer["trace.overhead_ratio"] = (
            median([rep.measured_s for rep in with_trace])
            / median([rep.measured_s for rep in plain])
            - 1.0
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")
        write_jsonl([rep.tracer for rep in with_trace], trace_path)

    for rep in reps:
        checks.merge(rep.checks)
    operations = sum(rep.operations for rep in reps)
    attempted = checks.attempted + operations
    failed = len(checks.failures)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(traced_run),
        "seconds": seconds,
        "repetitions": len(reps),
        "end_to_end": {
            key: {"value": value, "unit": UNITS[key], "reps": readings}
            for key, (value, readings) in end_to_end.items()
        },
        "per_layer": {
            key: {"value": value, "unit": UNITS[key]} for key, value in per_layer.items()
        },
        "extra": {
            "pooled_expand_wall_s": [
                rep.values["pooled_expand_wall_s"]
                for rep in plain
                if "pooled_expand_wall_s" in rep.values
            ],
            "ingest_visible_ms": sorted(
                round(s * 1e3, 3) for s in pooled([r.samples.get("ingest", []) for r in plain])
            ),
            "info": reps[-1].info,
        },
        "counts": reps[0].counts,
        "golden_checked": pinned is not None,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": checks.failures[:20],
    }


def report(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    print(
        f"# {result['workload']} seed={result['seed']} scale={result['scale']:g} "
        f"trace={result['trace']} repetitions={result['repetitions']}"
    )
    section = "per_layer" if result["trace"] else "end_to_end"
    for name, row in result[section].items():
        print(f"{name:<36} {row['value']:>16.6f} {row['unit']}")
    print(f"{'error_rate':<36} {result['error_rate']:>16.6f} ratio")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    sys.stdout.flush()
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in result[section].items()
        },
    }
    print(json.dumps(line))


# -- every workload, each in a subprocess ---------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    from e2e import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    merged: Dict[str, Any] = {
        "environment": environment(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "workloads": {},
    }
    status = 0
    for name in workloads.NAMES:
        parts: List[Dict[str, Any]] = []
        for trace in (0, 1):
            part = os.path.join(OUT_DIR, f".part-{name}-{trace}.json")
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale), "--out", part,
            ]  # fmt: skip
            if args.golden:
                command += ["--golden", args.golden]
            done = subprocess.run(command)
            status = status or done.returncode
            if os.path.exists(part):
                with open(part, encoding="utf-8") as handle:
                    parts.append(json.load(handle))
                os.remove(part)
        if len(parts) == 2:
            plain, traced = parts
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            merged["workloads"][name] = {
                "end_to_end": plain["end_to_end"],
                "per_layer": traced["per_layer"],
                "counts": plain["counts"],
                "extra": plain["extra"],
                "repetitions": plain["repetitions"],
                "attempted": attempted,
                "failed": failed,
                "error_rate": failed / attempted,
                "failures": plain["failures"] + traced["failures"],
            }
    out = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"# results written to {os.path.relpath(out)}")
    if status:
        print("# FAILED: at least one workload failed a check or did not finish")
    return status


def write_golden(path: str) -> None:
    """Re-pin ``golden.json`` from this checkout: every workload at the
    default seed, full scale and the harness test's quarter scale."""
    from e2e import check, workloads

    golden: Dict[str, Any] = {}
    for scale in (1.0, 0.25):
        for name in workloads.NAMES:
            counts = run_workload(name, DEFAULT_SEED, 0, False, scale, {})["counts"]
            invariant = workloads.SEED_INVARIANT[name]
            golden[check.golden_key(name, scale)] = {
                "every_seed": {k: v for k, v in counts.items() if k in invariant},
                "by_seed": {
                    str(DEFAULT_SEED): {
                        k: v for k, v in counts.items() if k not in invariant
                    }
                },
            }
            print(f"# pinned {name} at scale {scale:g}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    from e2e import check, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the inputs (the harness test runs at 0.25); "
        "numbers are comparable only at equal scale",
    )  # fmt: skip
    parser.add_argument("--golden", help="golden counts file (default golden.json)")
    parser.add_argument(
        "--write-golden", action="store_true",
        help="re-pin the golden counts file from this checkout and exit",
    )  # fmt: skip
    parser.add_argument("--out", help="write the full results as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        from e2e import compare

        return compare.main(*args.compare)
    if args.write_golden:
        write_golden(args.golden or check.GOLDEN_PATH)
        return 0
    if args.workload is None:
        return run_all(args)
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.scale,
        check.load_golden(args.golden),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    report(result)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    bootstrap()
    sys.exit(main())
