"""PlanCheck overhead: plan verification vs grounding cost.

The runtime gate (``PROBKB_VERIFY_PLANS=1``) verifies each distinct
plan object once, right before its first execution, so what a user
pays is a fixed number of pure tree walks per grounding run — the
plans themselves are compiled and statically planned whether or not
the gate is on.  This benchmark grounds a synthetic KB on the
8-segment simulator and compares

* the wall-clock cost of the verifier walks alone (logical +
  physical, over the same plans grounding executes), and
* the end-to-end grounding wall-clock with the gate on vs off,

against the gate-off grounding wall-clock.  The checked-in result
asserts the verifier walks stay under 5% of grounding.
"""

import time

from repro import ProbKB
from repro.analyze import (
    PlanEnvironment,
    grounding_schemas,
    kb_statistics,
    partition_plans,
)
from repro.core import GroundingConfig, MPPBackend
from repro.mpp.static_planner import StaticPlanner
from repro.mpp.verify import verify_physical_plan
from repro.relational.verify import verify_plan

from bench_fig4_query_plans import synthetic_kb
from reporting import scaled, write_result

NSEG = 8


def ground_wallclock(kb, verify_plans):
    system = ProbKB(
        kb,
        backend=MPPBackend(nseg=NSEG, verify_plans=verify_plans),
        grounding=GroundingConfig(apply_constraints=False, analysis="off"),
    )
    start = time.perf_counter()
    system.ground()
    return time.perf_counter() - start


def verifier_walks_wallclock(kb, repeats=20):
    """Time only what the gate adds: the verify passes over plans that
    the planner has already produced."""
    env = PlanEnvironment(kind="mpp", num_segments=NSEG)
    plans = partition_plans(kb, env)
    planner = StaticPlanner(kb_statistics(kb, env), NSEG)
    roots = [(name, planner.plan(plan).root) for name, _, plan in plans]
    schemas = grounding_schemas()

    start = time.perf_counter()
    for _ in range(repeats):
        for (name, _, plan), (_, root) in zip(plans, roots):
            assert verify_plan(plan, tables=schemas, name=name).ok
            assert verify_physical_plan(root, NSEG, name=name).ok
    elapsed = (time.perf_counter() - start) / repeats
    return elapsed, len(plans)


def test_verify_overhead(benchmark):
    kb = synthetic_kb(scaled(20_000))

    def workload():
        ground_wallclock(kb, verify_plans=False)  # warm-up
        baseline_s = ground_wallclock(kb, verify_plans=False)
        gated_s = ground_wallclock(kb, verify_plans=True)
        verify_s, plans = verifier_walks_wallclock(kb)
        return baseline_s, gated_s, verify_s, plans

    baseline_s, gated_s, verify_s, plans = benchmark.pedantic(
        workload, rounds=1, iterations=1
    )
    overhead = verify_s / baseline_s

    report = "\n".join(
        [
            "PlanCheck verification cost vs grounding wall-clock",
            f"(synthetic KB, {len(kb.facts)} facts, {len(kb.rules)} rules, "
            f"{NSEG}-segment simulator)",
            "",
            f"grounding, gate off       {baseline_s * 1e3:10.1f} ms",
            f"grounding, gate on        {gated_s * 1e3:10.1f} ms",
            f"verifier walks (x{plans:2d} plans){verify_s * 1e3:8.1f} ms  "
            "(logical + physical verify per plan)",
            f"walk overhead             {overhead * 100:10.2f} %  of gate-off grounding",
            "",
            "the runtime gate pays the walks once per distinct plan object;",
            "re-executions of a verified plan skip verification entirely",
        ]
    )
    write_result("verify_overhead", report)

    assert overhead < 0.05, (
        f"verifier walks are {overhead:.1%} of grounding wall-clock "
        "(budget: 5%)"
    )
