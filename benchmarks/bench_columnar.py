"""Wall-clock of the columnar executor vs the row engine.

Times the grounding-shaped operators (hash join on int keys, anti-join,
distinct, group-by) on synthetic int-keyed tables — the plan shapes
Algorithm 1 actually spends its time in.  Both executors are built
directly over one database's tables (no config selects the row engine;
it is the test reference) and checked bit-identical on every measured
query before timing is trusted.  End-to-end grounding wall-clock is
``benchmarks/e2e``'s job.

With numpy available the columnar engine must clear a >=2x speedup on
the grounding-operator mix; without numpy (``PROBKB_NO_NUMPY=1``) the
pure-Python columnar fallback is only asserted to stay within 3x of the
row engine (it exists for correctness, not speed).

Run with ``make bench-columnar``; the report is checked in at
``benchmarks/results/columnar.txt``.
"""

import os
import random
import time

from repro.bench import format_table, scaled, write_result
from repro.relational import (
    Aggregate,
    ColumnarExecutor,
    Database,
    Distinct,
    HashJoin,
    Project,
    Scan,
    col,
    numpy_enabled,
    schema,
)
from repro.relational.executor import Executor
from repro.relational.plan import AntiJoin

N_LEFT = scaled(30000)
N_RIGHT = scaled(6000)
REPEATS = 3
SPEEDUP_TARGET = 2.0


def make_db(rows_l, rows_r):
    db = Database("bench")
    db.create_table(schema("L", "k:int", "g:int", "v:int"))
    db.create_table(schema("R", "k:int", "g:int", "v:int"))
    db.bulkload("L", rows_l)
    db.bulkload("R", rows_r)
    return db


def operator_plans():
    return {
        "hash_join": lambda: Project(
            HashJoin(Scan("L", "l"), Scan("R", "r"), ["l.k"], ["r.k"]),
            [(col("l.v"), "lv"), (col("r.v"), "rv")],
        ),
        "anti_join": lambda: AntiJoin(
            Scan("L", "l"), Scan("R", "r"), ["l.k"], ["r.k"]
        ),
        "distinct": lambda: Distinct(
            Project(Scan("L", "l"), [(col("l.g"), "g"), (col("l.k"), "k")])
        ),
        "group_by": lambda: Aggregate(
            Scan("L", "l"),
            group_by=["l.g"],
            aggregates=[("count", None, "n"), ("sum", "l.v", "total")],
        ),
    }


def time_plan(run_rows, factory):
    """Best time of ``run_rows(plan)``, which returns the result rows."""
    best = float("inf")
    rows = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        rows = run_rows(factory())
        best = min(best, time.perf_counter() - started)
    return best, rows


def test_columnar_operator_speedup():
    rng = random.Random(7)
    rows_l = [
        (rng.randint(0, N_RIGHT), rng.randint(0, 40), rng.randint(0, 10**6))
        for _ in range(N_LEFT)
    ]
    rows_r = [
        (rng.randint(0, N_RIGHT), rng.randint(0, 40), rng.randint(0, 10**6))
        for _ in range(N_RIGHT)
    ]
    db = make_db(rows_l, rows_r)
    rows_engine = Executor(db.tables, db.clock)
    col_engine = ColumnarExecutor(db.tables, db.clock)

    lines = []
    total_rows_s = 0.0
    total_col_s = 0.0
    for name, factory in operator_plans().items():
        rows_s, expected = time_plan(
            lambda plan: rows_engine.run(plan).rows, factory
        )
        # the columnar result is a batch; build its rows inside the
        # timed region, as a query handing them out of the engine does
        col_s, actual = time_plan(
            lambda plan: col_engine.run(plan).to_rows(), factory
        )
        assert actual == expected, f"{name}: engines disagree"
        total_rows_s += rows_s
        total_col_s += col_s
        lines.append(
            (name, len(expected), f"{rows_s * 1e3:.1f}", f"{col_s * 1e3:.1f}",
             f"{rows_s / col_s:.2f}x")
        )
    speedup = total_rows_s / total_col_s
    lines.append(
        ("TOTAL", "", f"{total_rows_s * 1e3:.1f}", f"{total_col_s * 1e3:.1f}",
         f"{speedup:.2f}x")
    )

    numpy_on = numpy_enabled()
    report = format_table(
        ["operator", "out rows", "rows ms", "columnar ms", "speedup"],
        lines,
        title=(
            "Columnar executor vs row engine "
            f"(|L|={N_LEFT}, |R|={N_RIGHT}, numpy={'on' if numpy_on else 'off'}, "
            f"{os.cpu_count()} host cores)"
        ),
    )
    report += "\n\n(engines verified bit-identical on every measured query)"
    write_result("columnar", report)

    if numpy_on:
        assert speedup >= SPEEDUP_TARGET, (
            f"columnar speedup {speedup:.2f}x below {SPEEDUP_TARGET}x target"
        )
    else:
        # pure-Python fallback: correctness lane, must not be pathological
        assert speedup >= 1 / 3, f"no-numpy columnar {speedup:.2f}x is pathological"
