"""One analysis per KB: an ``analyze()`` call classifies each rule once,
synthesizes one statistics catalog and statically plans each grounding
query once, however many passes read them; ``KBService.explain()`` plans
each query once for both its EXPLAIN trees and their verification."""

import sys

import pytest

import repro.analyze
from repro.analyze import analyze, estimate_plans
from repro.core import BackendConfig, GroundingConfig, MPPConfig, ProbKB
from repro.core.backends import MPPBackend
from repro.core.clauses import classify_clause
from repro.datasets import paper_kb
from repro.mpp.static_planner import StaticPlanner
from repro.serve import KBService


def analyze_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro.analyze.")
    ]


@pytest.fixture
def calls(monkeypatch):
    """Count classifications, catalogs and static plans, wherever the
    analyzer's modules reach them from."""
    counts = {"classify": 0, "catalog": 0, "plan": 0}
    real_statistics = repro.analyze.plans.kb_statistics
    real_plan = StaticPlanner.plan

    def classify(rule):
        counts["classify"] += 1
        return classify_clause(rule)

    def statistics(*args, **kwargs):
        counts["catalog"] += 1
        return real_statistics(*args, **kwargs)

    def plan(self, logical):
        counts["plan"] += 1
        return real_plan(self, logical)

    for module in analyze_modules():
        if hasattr(module, "classify_clause"):
            monkeypatch.setattr(module, "classify_clause", classify)
        if hasattr(module, "kb_statistics"):
            monkeypatch.setattr(module, "kb_statistics", statistics)
    monkeypatch.setattr(StaticPlanner, "plan", plan)
    return counts


def test_analyze_on_mpp_does_each_piece_of_work_once(calls):
    kb = paper_kb(with_constraints=True)
    queries = len(estimate_plans(kb).queries)
    assert queries == 4  # Queries 1-i and 2-i of partitions 1 and 3
    for key in calls:
        calls[key] = 0
    report = analyze(kb, backend=MPPBackend(nseg=4))
    assert report.by_code("PKB105")  # the plan passes ran
    assert calls == {"classify": len(kb.rules), "catalog": 1, "plan": queries}


def test_service_explain_plans_each_query_once(calls):
    kb = paper_kb(with_constraints=True)
    probkb = ProbKB(
        kb,
        backend=BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=4)),
        grounding=GroundingConfig(analysis="off"),
    )
    with probkb:
        service = KBService(probkb)
        for key in calls:
            calls[key] = 0
        payload = service.explain()
    queries = len(payload["queries"])
    assert queries == 4
    # a logical and a [static] verification per planned query
    assert len(payload["verified"]) == 2 * queries
    assert calls == {"classify": len(kb.rules), "catalog": 1, "plan": queries}
