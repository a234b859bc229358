"""PlanCheck, physical layer: PKB209-212 on hand-built trees, plus the
runtime ``PROBKB_VERIFY_PLANS`` gate over the in-process MPP executor."""

import pytest

from repro.mpp import HashDistribution, MPPDatabase, ReplicatedDistribution
from repro.mpp.plannodes import DistDesc, PhysicalNode
from repro.mpp.verify import PHYSICAL_CODES, verify_physical_plan
from repro.relational import Database, Filter, HashJoin, Scan, schema
from repro.relational.expr import Col, Compare, Const
from repro.relational.verify import PlanVerificationError

NSEG = 4


def scan(table, dist):
    return PhysicalNode("Seq Scan", f"on {table}", dist=dist)


def hashed(*columns):
    return DistDesc.hash_on(list(columns))


def codes(report):
    return report.codes


# -- registry ----------------------------------------------------------------


def test_registry_covers_pkb209_to_212():
    assert set(PHYSICAL_CODES) == {f"PKB{i}" for i in range(209, 213)}
    for code, (severity, title) in PHYSICAL_CODES.items():
        assert severity in ("error", "warning")
        assert title


# -- PKB209: non-collocated join ---------------------------------------------


def test_pkb209_non_collocated_join():
    join = PhysicalNode(
        "Hash Join",
        "on L.a = R.b",
        children=[scan("L", hashed("a")), scan("R", hashed("c"))],
    )
    report = verify_physical_plan(join, NSEG)
    (finding,) = report.findings
    assert finding.code == "PKB209"
    assert finding.path == "root"
    assert finding.severity == "error"
    assert "neither collocated" in finding.message
    assert "hash(a)" in finding.message and "hash(c)" in finding.message


def test_pkb209_anti_join_with_replicated_left():
    # the preserved side of an anti-join must not be replicated against
    # a hashed right: each copy would test only one segment's rows
    join = PhysicalNode(
        "Hash Anti Join",
        "on L.a = R.a",
        children=[scan("L", DistDesc.replicated()), scan("R", hashed("a"))],
    )
    report = verify_physical_plan(join, NSEG)
    assert codes(report) == ["PKB209"]


def test_collocated_replicated_and_singleton_joins_are_clean():
    collocated = PhysicalNode(
        "Hash Join",
        "on L.a = R.b",
        children=[scan("L", hashed("a")), scan("R", hashed("b"))],
    )
    assert verify_physical_plan(collocated, NSEG).ok
    broadcast = PhysicalNode(
        "Hash Join",
        "on L.a = R.b",
        children=[scan("L", hashed("z")), scan("R", DistDesc.replicated())],
    )
    assert verify_physical_plan(broadcast, NSEG).ok


def test_table_dists_feed_unannotated_scans():
    join = PhysicalNode(
        "Hash Join",
        "on L.a = R.b",
        children=[
            PhysicalNode("Seq Scan", "on L"),
            PhysicalNode("Seq Scan", "on R"),
        ],
    )
    dists = {"L": hashed("a"), "R": hashed("z")}
    report = verify_physical_plan(join, NSEG, table_dists=dists)
    assert codes(report) == ["PKB209"]
    dists["R"] = hashed("b")
    assert verify_physical_plan(join, NSEG, table_dists=dists).ok


# -- PKB210: redundant motions -----------------------------------------------


def test_pkb210_redundant_redistribute():
    motion = PhysicalNode(
        "Redistribute Motion", "on (a)", children=[scan("T", hashed("a"))]
    )
    motion.dist = hashed("a")
    (finding,) = verify_physical_plan(motion, NSEG).findings
    assert finding.code == "PKB210"
    assert finding.severity == "warning"
    assert finding.path == "root"
    assert "already" in finding.message


def test_pkb210_redundant_broadcast_and_gather():
    broadcast = PhysicalNode(
        "Broadcast Motion",
        "",
        children=[scan("T", DistDesc.replicated())],
    )
    broadcast.dist = DistDesc.replicated()
    report = verify_physical_plan(broadcast, NSEG)
    assert codes(report) == ["PKB210"]

    gather = PhysicalNode(
        "Gather Motion",
        "to seg0",
        children=[PhysicalNode("Values", "")],
    )
    report = verify_physical_plan(gather, NSEG)
    assert codes(report) == ["PKB210"]
    assert "single segment" in report.findings[0].message


def test_master_gather_with_empty_detail_is_never_redundant():
    gather = PhysicalNode(
        "Gather Motion", "", children=[PhysicalNode("Values", "")]
    )
    assert verify_physical_plan(gather, NSEG).ok


# -- PKB211: receiver requirements -------------------------------------------


def test_pkb211_distinct_over_arbitrary_input():
    distinct = PhysicalNode(
        "Distinct", "", children=[scan("T", DistDesc.arbitrary())]
    )
    (finding,) = verify_physical_plan(distinct, NSEG).findings
    assert finding.code == "PKB211"
    assert finding.path == "root"
    assert "different" in finding.message and "segments" in finding.message


def test_pkb211_grouped_aggregate_hashed_outside_group_keys():
    agg = PhysicalNode(
        "HashAggregate",
        "group by (R, x)",
        children=[scan("T", hashed("y"))],
    )
    (finding,) = verify_physical_plan(agg, NSEG).findings
    assert finding.code == "PKB211"
    assert "share" in finding.message
    # hashed within the group keys (qualified spelling) is fine
    ok = PhysicalNode(
        "HashAggregate",
        "group by (R, x)",
        children=[scan("T", hashed("T.R"))],
    )
    assert verify_physical_plan(ok, NSEG).ok


def test_pkb211_global_aggregate_needs_a_gather():
    agg = PhysicalNode(
        "HashAggregate", "group by ()", children=[scan("T", hashed("a"))]
    )
    report = verify_physical_plan(agg, NSEG)
    assert codes(report) == ["PKB211"]
    assert "gather first" in report.findings[0].message

    gathered = PhysicalNode(
        "HashAggregate",
        "group by ()",
        children=[
            PhysicalNode("Gather Motion", "to seg0", children=[scan("T", hashed("a"))])
        ],
    )
    assert verify_physical_plan(gathered, NSEG).ok


# -- PKB212: malformed nodes and declaration mismatches ----------------------


def test_pkb212_unknown_kind():
    node = PhysicalNode("Quantum Scan", "on T")
    (finding,) = verify_physical_plan(node, NSEG).findings
    assert finding.code == "PKB212"
    assert finding.path == "root"
    assert "unknown physical operator kind 'Quantum Scan'" in finding.message


def test_pkb212_wrong_child_count():
    join = PhysicalNode("Hash Join", "on a = b", children=[scan("T", None)])
    (finding,) = verify_physical_plan(join, NSEG).findings
    assert finding.code == "PKB212"
    assert "has 1 children, expected 2" in finding.message
    empty_append = PhysicalNode("Append", "")
    (finding,) = verify_physical_plan(empty_append, NSEG).findings
    assert finding.code == "PKB212"
    assert "expected >=1" in finding.message


def test_pkb212_unparsable_join_detail():
    join = PhysicalNode(
        "Hash Join",
        "using keys",
        children=[scan("L", hashed("a")), scan("R", hashed("a"))],
    )
    (finding,) = verify_physical_plan(join, NSEG).findings
    assert finding.code == "PKB212"
    assert "unparsable join detail" in finding.message


def test_pkb212_declared_dist_contradicts_derivation():
    node = PhysicalNode("Filter", "a = 1", children=[scan("T", hashed("a"))])
    node.dist = hashed("b")
    (finding,) = verify_physical_plan(node, NSEG).findings
    assert finding.code == "PKB212"
    assert finding.path == "root"
    assert "declares hash(b)" in finding.message
    assert "derivation gives hash(a)" in finding.message


def test_pkb212_motions_are_strict_but_arbitrary_weakening_is_not():
    # declared arbitrary on an ordinary operator: sound weakening, clean
    node = PhysicalNode("Filter", "a = 1", children=[scan("T", hashed("a"))])
    node.dist = DistDesc.arbitrary()
    assert verify_physical_plan(node, NSEG).ok
    # the same declaration on a motion contradicts the motion semantics
    motion = PhysicalNode(
        "Redistribute Motion", "on (b)", children=[scan("T", hashed("a"))]
    )
    motion.dist = DistDesc.arbitrary()
    (finding,) = verify_physical_plan(motion, NSEG).findings
    assert finding.code == "PKB212"
    assert "Redistribute Motion" in finding.message


def test_single_segment_skips_distribution_checks_only():
    join = PhysicalNode(
        "Hash Join",
        "on L.a = R.b",
        children=[scan("L", hashed("a")), scan("R", hashed("c"))],
    )
    assert verify_physical_plan(join, 1).ok  # nseg=1: trivially sound
    broken = PhysicalNode("Quantum Scan", "on T")
    assert not verify_physical_plan(broken, 1).ok  # structure still checked


def test_paths_descend_into_children():
    inner = PhysicalNode("Quantum Scan", "on T")
    outer = PhysicalNode(
        "Hash Join",
        "on L.a = R.a",
        children=[scan("L", hashed("a")), PhysicalNode("Filter", "x", children=[inner])],
    )
    report = verify_physical_plan(outer, NSEG)
    (finding,) = [f for f in report.findings if f.code == "PKB212"]
    assert finding.path == "root.1.0"


# -- the runtime gate over live executions -----------------------------------

PEOPLE = [(i, f"p{i}", (i % 7) * 10) for i in range(60)]
CITIES = [(c * 10, f"city{c}", c * 1000) for c in range(7)]


def make_cluster(nseg=4, city_policy=None):
    cluster = MPPDatabase(nseg=nseg)
    cluster.create_table(
        schema("person", "id:int", "name:text", "city:int"),
        HashDistribution(["id"]),
    )
    cluster.create_table(
        schema("city", "id:int", "name:text", "pop:int"),
        city_policy or HashDistribution(["id"]),
    )
    cluster.bulkload("person", PEOPLE)
    cluster.bulkload("city", CITIES)
    return cluster


def join_plan():
    return HashJoin(
        Scan("person", "p"), Scan("city", "c"), ["p.city"], ["c.id"]
    )


@pytest.mark.parametrize("policy", [None, ReplicatedDistribution()])
def test_gate_on_results_identical_and_plans_clean(policy, monkeypatch):
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", "1")
    loud = make_cluster(city_policy=policy)
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", "0")
    quiet = make_cluster(city_policy=policy)
    assert loud.verify_plans and not quiet.verify_plans
    assert (
        loud.query(join_plan()).sorted_rows()
        == quiet.query(join_plan()).sorted_rows()
    )


def test_gate_rejects_a_malformed_plan_before_execution(monkeypatch):
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", "1")
    cluster = make_cluster()
    bad = Filter(Scan("person", "p"), Compare("=", Col("ghost"), Const(1)))
    with pytest.raises(PlanVerificationError) as info:
        cluster.query(bad)
    assert "PKB203" in str(info.value)
    assert info.value.report.errors


def test_gate_env_var_reaches_the_cluster(monkeypatch):
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", "1")
    assert make_cluster().verify_plans is True
    monkeypatch.delenv("PROBKB_VERIFY_PLANS")
    assert make_cluster().verify_plans is False


def test_single_node_gate_rejects_malformed_plans(monkeypatch):
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", "1")
    db = Database()
    db.create_table(schema("t", "a:int"))
    db.bulkload("t", [(1,)])
    bad = Filter(Scan("t"), Compare("=", Col("ghost"), Const(1)))
    with pytest.raises(PlanVerificationError):
        db.query(bad)
    good = Filter(Scan("t"), Compare("=", Col("a"), Const(1)))
    assert db.query(good).rows == [(1,)]


def test_each_plan_object_is_verified_once(monkeypatch):
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", "1")
    cluster = make_cluster()
    plan = join_plan()
    cluster.query(plan)
    assert plan in cluster._verified_plans
    cluster.query(plan)  # second run: cache hit, still correct
    assert len(cluster.query(plan).rows) == 60
