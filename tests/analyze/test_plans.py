"""Static plan analysis: PKB101-105, the strict gate, and the report.

Each seeded program triggers exactly the pathology its test names:
a selective MLN join on a naive cluster broadcasts (PKB101), balanced
naive joins redistribute the facts table (PKB102), a dense relation
pair predicts a cross-product-like explosion (PKB103), and a hub
entity skews the join key (PKB104).
"""

import itertools

import pytest

from repro.analyze import (
    AnalysisError,
    analyze,
    check_plans,
    estimate_plans,
    kb_statistics,
)
from repro.analyze import plans as plans_pass
from repro.core import Atom, Fact, HornClause, KnowledgeBase, Relation
from repro.core.backends import MPPBackend, SingleNodeBackend

from .conftest import good_rule, make_kb


def chain_rule(weight=2.0):
    """p(x, y) <- q1(x, z), q2(z, y): the transitive-join shape."""
    return HornClause.make(
        Atom("p", ("x", "y")),
        [Atom("q1", ("x", "z")), Atom("q2", ("z", "y"))],
        weight,
        {"x": "Thing", "y": "Thing", "z": "Thing"},
    )


def _thing_kb(facts, extra_relations=()):
    entities = {f.subject for f in facts} | {f.object for f in facts}
    relations = [
        Relation(name, "Thing", "Thing")
        for name in ("q1", "q2", "p", *extra_relations)
    ]
    return KnowledgeBase(
        classes={"Thing": entities},
        relations=relations,
        facts=facts,
        rules=[chain_rule()],
    )


def dense_kb(d=80):
    """q1 = A x B complete, q2 = B x C complete: the estimator predicts
    the chain join emits far more rows than it consumes."""
    facts = [
        Fact("q1", f"a{i}", "Thing", f"b{j}", "Thing", weight=0.9)
        for i, j in itertools.product(range(d), range(d))
    ]
    facts += [
        Fact("q2", f"b{i}", "Thing", f"c{j}", "Thing", weight=0.9)
        for i, j in itertools.product(range(d), range(d))
    ]
    return _thing_kb(facts)


def hub_kb(n=600):
    """Every q1 fact points at one hub entity that every q2 fact leaves
    from: the join key's most common value holds 100% of the rows."""
    facts = [
        Fact("q1", f"e{i}", "Thing", "hub", "Thing", weight=0.9)
        for i in range(n)
    ]
    facts += [
        Fact("q2", "hub", "Thing", f"e{i}", "Thing", weight=0.9)
        for i in range(n)
    ]
    return _thing_kb(facts)


def wide_kb(n_rel=20, per_rel=100):
    """Facts spread over many relations: the MLN join is selective, so
    on a naive cluster the small side gets broadcast."""
    entities = [f"e{i}" for i in range(60)]
    pairs = list(itertools.product(entities, entities))[:per_rel]
    relation_names = [f"r{k}" for k in range(n_rel)]
    facts = [
        Fact(name, x, "Thing", y, "Thing", weight=0.5)
        for name in relation_names
        for x, y in pairs
    ]
    rule = HornClause.make(
        Atom("p", ("x", "y")),
        [Atom("r0", ("x", "z")), Atom("r1", ("z", "y"))],
        2.0,
        {"x": "Thing", "y": "Thing", "z": "Thing"},
    )
    return KnowledgeBase(
        classes={"Thing": set(entities)},
        relations=[
            Relation(name, "Thing", "Thing")
            for name in (*relation_names, "p")
        ],
        facts=facts,
        rules=[rule],
    )


def balanced_kb(n=500):
    """Two same-sized dense relations on a naive cluster: broadcasting
    loses to redistributing both sides, which ships the facts table."""
    entities = [f"e{i}" for i in range(40)]
    pairs = list(itertools.product(entities, entities))[:n]
    facts = [
        Fact("q1", x, "Thing", y, "Thing", weight=0.5) for x, y in pairs
    ]
    facts += [
        Fact("q2", x, "Thing", y, "Thing", weight=0.5) for x, y in pairs
    ]
    return _thing_kb(facts)


NAIVE = MPPBackend(nseg=8, use_matviews=False)


def plan_findings(kb, backend=None, include_infos=False):
    return check_plans(estimate_plans(kb, backend), include_infos=include_infos)


def codes(findings):
    return sorted({f.code for f in findings})


def test_pkb101_broadcast_of_large_relation(monkeypatch):
    monkeypatch.setattr(plans_pass, "LARGE_MOTION_ROWS", 50)
    monkeypatch.setattr(plans_pass, "SKEW_MIN_ROWS", 10**9)
    findings = plan_findings(wide_kb(), NAIVE)
    assert codes(findings) == ["PKB101"]
    finding = findings[0]
    assert finding.severity == "warning"
    assert "TP" in finding.details["source_tables"]
    assert finding.details["rows"] >= 50


def test_pkb102_non_collocated_facts_join(monkeypatch):
    monkeypatch.setattr(plans_pass, "LARGE_MOTION_ROWS", 400)
    monkeypatch.setattr(plans_pass, "SKEW_MIN_ROWS", 10**9)
    findings = plan_findings(balanced_kb(), NAIVE)
    assert codes(findings) == ["PKB102"]
    assert all("TP" in f.details["source_tables"] for f in findings)


def test_pkb103_cardinality_explosion_default_thresholds():
    findings = plan_findings(dense_kb())
    assert "PKB103" in codes(findings)
    (finding,) = [
        f for f in findings if f.code == "PKB103" and "1-4" in f.message
    ]
    assert finding.severity == "error"
    inputs = finding.details["left_rows"] + finding.details["right_rows"]
    assert finding.details["est_rows"] > 10 * inputs


def test_pkb104_skewed_join_key_default_thresholds():
    findings = plan_findings(hub_kb())
    assert "PKB104" in codes(findings)
    finding = [f for f in findings if f.code == "PKB104"][0]
    assert finding.severity == "warning"
    assert finding.details["key_mcv"] == pytest.approx(1.0)


def test_pkb105_summary_is_info_only():
    kb = make_kb(rules=[good_rule()])
    with_infos = plan_findings(kb, include_infos=True)
    without = plan_findings(kb, include_infos=False)
    assert codes(with_infos) == ["PKB105"]
    assert codes(without) == []
    (summary,) = with_infos
    assert summary.severity == "info"
    assert summary.details["queries"] == 2  # Query 1-1 and 2-1
    assert summary.details["estimated_seconds"] > 0


def test_toy_kb_triggers_no_plan_warnings():
    # conservative default thresholds: tiny KBs never trip PKB101-104
    report = analyze(make_kb(rules=[good_rule()]), include_infos=False)
    assert [c for c in report.codes if c.startswith("PKB10")] == []


def test_strict_gate_rejects_predicted_explosion():
    from repro.core import BackendConfig, GroundingConfig, MPPConfig, ProbKB

    with pytest.raises(AnalysisError) as excinfo:
        ProbKB(
            dense_kb(),
            backend=BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=4)),
            grounding=GroundingConfig(analysis="strict"),
        )
    assert "PKB103" in str(excinfo.value)
    assert excinfo.value.report.by_code("PKB103")


def test_estimates_respect_environment():
    kb = hub_kb(50)
    mpp = estimate_plans(kb, MPPBackend())
    single = estimate_plans(kb, SingleNodeBackend())
    assert [q.name for q in mpp.queries] == [q.name for q in single.queries]
    # one segment has no interconnect: no motions, matviews irrelevant
    assert any(q.motions for q in mpp.queries)
    assert all(not q.motions for q in single.queries)
    assert all(
        not q.root.find_all("Redistribute Motion")
        and not q.root.find_all("Broadcast Motion")
        for q in single.queries
    )
    assert single.to_dict()["environment"] == {
        "kind": "single",
        "num_segments": 1,
        "use_matviews": False,
    }
    assert mpp.query("Query 1-4").partition == 4
    with pytest.raises(KeyError):
        mpp.query("Query 9-9")


def test_kb_statistics_match_kb_shape():
    kb = hub_kb(100)
    catalog = kb_statistics(kb, MPPBackend())
    tp = catalog.stats("TP")
    assert tp.rows == len(kb.facts)
    assert tp.column("R").distinct == 2  # q1 and q2
    assert tp.column("x").mcv_fraction == pytest.approx(0.5)  # hub is half
    assert catalog.distribution("TP").kind == "hash"
    assert catalog.distribution("Txy").columns == ("R", "C1", "x", "C2", "y")
    assert catalog.distribution("M4").kind == "replicated"
    # duplicate facts collapse like the loader's fact-key dedup
    duplicated = KnowledgeBase(
        classes=kb.classes,
        relations=kb.relations.values(),
        facts=list(kb.facts) + list(kb.facts),
        rules=kb.rules,
    )
    assert kb_statistics(duplicated, MPPBackend()).stats("TP").rows == tp.rows


def test_unclassifiable_rules_are_skipped():
    # a unary-head rule is PKB002's business; the plan pass must not crash
    bad = HornClause.make(
        Atom("p", ("x", "x")),
        [Atom("q1", ("x", "y"))],
        1.0,
        {"x": "Thing", "y": "Thing"},
    )
    kb = KnowledgeBase(
        classes={"Thing": {"a", "b"}},
        relations=[
            Relation("p", "Thing", "Thing"),
            Relation("q1", "Thing", "Thing"),
        ],
        facts=[Fact("q1", "a", "Thing", "b", "Thing", weight=0.5)],
        rules=[bad],
        validate=False,
    )
    assert estimate_plans(kb).queries == []
    assert plan_findings(kb, include_infos=True) == []
