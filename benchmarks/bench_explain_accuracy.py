"""Calibration of the static plan estimator against executed plans.

`repro explain` predicts rows and modelled seconds for every grounding
query without executing anything.  This benchmark runs the same queries
for real on the 8-segment MPP simulator and reports the q-error
(max(est/actual, actual/est), the planner-literature accuracy metric)
per query, across the paper example and fig4-style synthetic KBs.

Acceptance: median row q-error <= 4.  The machine-readable result is
checked in at benchmarks/results/explain_accuracy.json.
"""

import json
import os
import statistics

from repro import GroundingConfig, ProbKB
from repro.analyze import estimate_plans
from repro.core import MPPBackend, ground_atoms_plan, ground_factors_plan
from repro.datasets.paper_example import paper_kb

from bench_fig4_query_plans import synthetic_kb
from reporting import results_dir, scaled, write_result

NSEG = 8


def q_error(estimate, actual, floor=1.0):
    """Symmetric relative error with both sides floored (1 row / 1 us),
    so near-empty results compare on the same scale as everything else
    (predicting 1 row when 0 arrive is a q-error of 1, not infinity)."""
    est = max(estimate, floor)
    act = max(actual, floor)
    return max(est / act, act / est)


def measure_workload(label, kb, use_matviews=True):
    """Estimate, then execute, every grounding query of one KB."""
    backend = MPPBackend(nseg=NSEG, use_matviews=use_matviews)
    # the gate's warnings are this benchmark's subject, not its noise
    system = ProbKB(
        kb,
        backend=backend,
        grounding=GroundingConfig(apply_constraints=False, analysis="off"),
    )
    report = estimate_plans(system.kb, backend)
    builders = {"1": ground_atoms_plan, "2": ground_factors_plan}
    records = []
    for query in report.queries:
        algorithm = query.name.split(" ")[1].split("-")[0]  # "Query 1-3" -> "1"
        plan = builders[algorithm](query.partition, backend)
        before = backend.elapsed_seconds
        actual_rows = len(backend.query(plan).rows)
        actual_seconds = backend.elapsed_seconds - before
        records.append(
            {
                "workload": label,
                "query": query.name,
                "est_rows": query.estimated_rows,
                "actual_rows": actual_rows,
                "q_error_rows": round(
                    q_error(query.estimated_rows, actual_rows), 4
                ),
                "est_seconds": round(query.estimated_seconds, 6),
                "actual_seconds": round(actual_seconds, 6),
                "q_error_seconds": round(
                    q_error(query.estimated_seconds, actual_seconds, 1e-6), 4
                ),
            }
        )
    backend.close()
    return records


def test_explain_accuracy(benchmark):
    workloads = [
        ("paper_example", paper_kb()),
        ("synthetic_10k", synthetic_kb(scaled(10_000), seed=0)),
        ("synthetic_30k", synthetic_kb(scaled(30_000), seed=1)),
    ]

    def run():
        records = []
        for label, kb in workloads:
            records.extend(measure_workload(label, kb))
        return records

    records = benchmark.pedantic(run, rounds=1, iterations=1)

    row_errors = [r["q_error_rows"] for r in records]
    second_errors = [r["q_error_seconds"] for r in records]
    summary = {
        "num_queries": len(records),
        "median_q_error_rows": round(statistics.median(row_errors), 4),
        "max_q_error_rows": round(max(row_errors), 4),
        "median_q_error_seconds": round(statistics.median(second_errors), 4),
        "max_q_error_seconds": round(max(second_errors), 4),
        "queries": records,
    }
    with open(os.path.join(results_dir(), "explain_accuracy.json"), "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    lines = [
        "Static estimator calibration: q-error vs executed grounding queries",
        f"({NSEG}-segment MPP simulator, matviews on)",
        "",
        f"{'workload':<16}{'query':<12}{'est rows':>10}{'actual':>10}"
        f"{'q-err':>8}{'est ms':>10}{'actual ms':>11}",
    ]
    for r in records:
        lines.append(
            f"{r['workload']:<16}{r['query']:<12}{r['est_rows']:>10}"
            f"{r['actual_rows']:>10}{r['q_error_rows']:>8.2f}"
            f"{r['est_seconds'] * 1e3:>10.2f}{r['actual_seconds'] * 1e3:>11.2f}"
        )
    lines += [
        "",
        f"median row q-error    {summary['median_q_error_rows']:.2f}  "
        f"(max {summary['max_q_error_rows']:.2f})",
        f"median time q-error   {summary['median_q_error_seconds']:.2f}  "
        f"(max {summary['max_q_error_seconds']:.2f})",
    ]
    write_result("explain_accuracy", "\n".join(lines))

    # the gate `repro analyze` relies on these estimates; keep them honest
    assert summary["median_q_error_rows"] <= 4.0
