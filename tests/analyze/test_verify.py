"""The PlanCheck analyzer pass: every grounding plan of the paper KB
verifies clean in every environment, golden EXPLAIN snapshots, and the
PKB201-212 codes surface through the ordinary analysis report."""

from pathlib import Path

import pytest

from repro.analyze import (
    CODES,
    analyze,
    check_plan_soundness,
    estimate_plans,
    grounding_schemas,
    partition_plans,
    verify_partition_plans,
)
from repro.core.backends import MPPBackend, SingleNodeBackend
from repro.core.model import KnowledgeBase
from repro.datasets import paper_kb
from repro.mpp.placement import table_dist
from repro.mpp.plannodes import DistDesc
from repro.relational.statistics import StatisticsCatalog, TableDistribution, table_stats

GOLDEN = Path(__file__).parent / "golden"

SINGLE = SingleNodeBackend()
MPP = MPPBackend()  # the paper's default: 8 segments, matviews on


def nonempty_partitions(kb):
    return sorted({p for _, p, _ in partition_plans(kb)})


# -- registry ----------------------------------------------------------------


def test_plancheck_codes_are_registered():
    assert {f"PKB{i}" for i in range(201, 213)} <= set(CODES)


def test_grounding_schemas_cover_every_scan_target():
    schemas = grounding_schemas()
    assert {"TP", "Tx", "Ty", "Txy", "T0"} <= set(schemas)
    assert {f"M{i}" for i in range(1, 7)} <= set(schemas)


# -- the paper KB verifies clean everywhere ----------------------------------


@pytest.mark.parametrize("env", [SINGLE, MPP], ids=["single", "mpp"])
def test_paper_kb_plans_verify_clean(env):
    kb = paper_kb()
    reports = verify_partition_plans(kb, env)
    assert reports, "the paper KB must produce grounding plans"
    for report in reports:
        assert report.ok and not report.findings, report.render()
    # two queries per nonempty partition, doubled by [static] on MPP
    expected = 2 * len(nonempty_partitions(kb))
    if env.nseg > 1:
        expected *= 2
    assert len(reports) == expected
    names = [r.plan_name for r in reports]
    for partition in nonempty_partitions(kb):
        assert f"Query 1-{partition}" in names
        assert f"Query 2-{partition}" in names
        if env.nseg > 1:
            assert f"Query 1-{partition} [static]" in names
            assert f"Query 2-{partition} [static]" in names


@pytest.mark.parametrize("env", [SINGLE, MPP], ids=["single", "mpp"])
def test_check_plan_soundness_finds_nothing_on_the_paper_kb(env):
    assert check_plan_soundness(paper_kb(), env) == []


def test_analyze_report_carries_no_plancheck_findings():
    report = analyze(paper_kb())
    assert not any(code.startswith("PKB2") for code in report.codes)


def test_broken_kb_is_the_other_passes_business():
    # a rule-free KB grounds nothing: no plans, no findings, no crash
    empty = KnowledgeBase(classes={}, relations=[], facts=[], rules=[])
    assert check_plan_soundness(empty) == []


# -- golden EXPLAIN snapshots ------------------------------------------------


@pytest.mark.parametrize(
    "env,golden",
    [(SINGLE, "explain_single.txt"), (MPP, "explain_mpp.txt")],
    ids=["single", "mpp"],
)
def test_explain_matches_golden_snapshot(env, golden):
    rendered = estimate_plans(paper_kb(), env).render() + "\n"
    expected = (GOLDEN / golden).read_text()
    assert rendered == expected, (
        f"EXPLAIN drifted from tests/analyze/golden/{golden}; if the "
        "planner change is intentional, regenerate the snapshot"
    )


def test_golden_snapshots_cover_every_query():
    kb = paper_kb()
    text = (GOLDEN / "explain_mpp.txt").read_text()
    for partition in nonempty_partitions(kb):
        assert f"Query 1-{partition}" in text
        assert f"Query 2-{partition}" in text


# -- catalog distribution translation ----------------------------------------


def test_catalog_dists_translate_every_kind():
    catalog = StatisticsCatalog(num_segments=4)
    stats = table_stats(["a", "b"], [(1, 2)])
    catalog.add("H", stats, TableDistribution.hash_on(["a"]))
    catalog.add("R", stats, TableDistribution.replicated())
    catalog.add("X", stats, TableDistribution.random())
    dists = {name: table_dist(catalog.distribution(name)) for name in "HRX"}
    assert dists["H"] == DistDesc.hash_on(["a"])
    assert dists["R"] == DistDesc.replicated()
    assert dists["X"] == DistDesc.arbitrary()


# -- findings surface with query context -------------------------------------


def test_findings_carry_query_and_node_context(monkeypatch):
    from repro.analyze import verify as verify_pass
    from repro.relational.verify import PlanFinding, VerificationReport

    def fake_reports(kb, environment=None):
        return [
            VerificationReport(
                plan_name="Query 2-3",
                findings=(
                    PlanFinding(
                        code="PKB209",
                        path="root.0",
                        message="inputs are hash(a) and hash(b)",
                        severity="error",
                    ),
                ),
            )
        ]

    monkeypatch.setattr(verify_pass, "verify_partition_plans", fake_reports)
    (finding,) = verify_pass.check_plan_soundness(paper_kb())
    assert finding.code == "PKB209"
    assert finding.severity == "error"
    assert finding.message.startswith("Query 2-3: root.0:")
    assert finding.details["query"] == "Query 2-3"
    assert finding.details["node"] == "root.0"
