"""Every plan operator is handled by every consumer of plan trees.

A ``PlanNode`` subclass is implemented in six places (the operator step
the single-node and MPP executors share, the row reference executor,
motion placement and EXPLAIN labels, the static planner, the verifier,
the SQL renderer).  This suite builds one minimal well-formed
instance per concrete subclass of ``relational/plan.py`` and hands it to
each of them, so an operator cannot exist in the IR without a producer
noticing, nor be missing from one walker.
"""

import pytest

from repro.mpp import HashDistribution, MPPDatabase
from repro.mpp.placement import Input, place
from repro.mpp.plannodes import DistDesc
from repro.mpp.static_planner import StaticPlanner, collect_mpp_statistics
from repro.relational import (
    Aggregate,
    AntiJoin,
    Database,
    Distinct,
    Filter,
    HashJoin,
    PlanNode,
    Project,
    Scan,
    UnionAll,
    Values,
    col,
    eq_const,
    plan as plan_module,
    schema,
    to_sql,
)
from repro.relational.plan import bind_scans
from repro.relational.verify import verify_plan

from ..relational.rowref import run_query

ROWS = [(1, 1), (1, 2), (2, 3), (3, 3), (3, 3)]

#: one minimal well-formed instance per operator, over ``t(a, b)``
INSTANCES = {
    Scan: lambda: Scan("t"),
    Values: lambda: Values(["a", "b"], [(1, 2)]),
    Filter: lambda: Filter(Scan("t"), eq_const("t.a", 1)),
    Project: lambda: Project(Scan("t"), [(col("t.b"), "b")]),
    HashJoin: lambda: HashJoin(Scan("t", "x"), Scan("t", "y"), ["x.a"], ["y.b"]),
    AntiJoin: lambda: AntiJoin(Scan("t", "x"), Scan("t", "y"), ["x.a"], ["y.b"]),
    Distinct: lambda: Distinct(Scan("t")),
    Aggregate: lambda: Aggregate(Scan("t"), ["t.a"], [("count", None, "n")]),
    # (its constructor reads the children's columns: no unbound scans)
    UnionAll: lambda: UnionAll([Values(["a"], [(1,)]), Values(["a"], [(2,)])]),
}

#: per operator, a defect only that operator's verifier branch reports
#: (the verifier passes an operator it does not know through in silence)
DEFECTIVE = {
    Scan: lambda: Scan("nowhere"),
    Values: lambda: Values(["a", "a"], [(1, 2)]),
    Filter: lambda: Filter(Scan("t"), eq_const("t.ghost", 1)),
    Project: lambda: Project(Scan("t"), [(col("t.ghost"), "g")]),
    HashJoin: lambda: HashJoin(Scan("t", "x"), Scan("t", "y"), ["x.ghost"], ["y.b"]),
    AntiJoin: lambda: AntiJoin(Scan("t", "x"), Scan("t", "y"), ["x.ghost"], ["y.b"]),
    Distinct: lambda: Distinct(Distinct(Scan("t"))),
    Aggregate: lambda: Aggregate(Scan("t"), ["t.ghost"], [("count", None, "n")]),
    UnionAll: lambda: UnionAll([Values(["a"], [(1,)]), Values(["b"], [(2,)])]),
}

#: nodes the walkers never ask ``place`` about: a scan reads its table
#: where it lies
NEVER_PLACED = {Scan}

OPERATORS = sorted(
    (
        cls for cls in vars(plan_module).values()
        if isinstance(cls, type) and issubclass(cls, PlanNode) and cls is not PlanNode
    ),
    key=lambda cls: cls.__name__,
)


def single():
    db = Database()
    db.create_table(schema("t", "a:int", "b:int"))
    db.bulkload("t", ROWS)
    return db


def cluster(nseg):
    db = MPPDatabase(nseg=nseg)
    db.create_table(schema("t", "a:int", "b:int"), HashDistribution(["a"]))
    db.bulkload("t", ROWS)
    return db


def run_mpp(nseg):
    return lambda plan: cluster(nseg).query(plan)


def run_place(plan):
    if type(plan) in NEVER_PLACED:
        return None
    bind_scans(plan, single().tables)
    inputs = [
        Input(child.output_columns, DistDesc.arbitrary(), len(ROWS))
        for child in plan.children
    ]
    return place(plan, inputs, 3)


def run_static_planner(plan):
    db = cluster(3)
    return StaticPlanner(collect_mpp_statistics(db), db.nseg).plan(plan)


def run_verify(plan):
    tables = single().tables
    assert verify_plan(plan, tables=tables).findings == ()
    flagged = verify_plan(DEFECTIVE[type(plan)](), tables=tables).findings
    assert [finding.path for finding in flagged] == ["root"]


CONSUMERS = {
    "columnar_executor": lambda plan: single().query(plan),
    "reference_executor": lambda plan: run_query(single(), plan),
    "mpp_executor_1seg": run_mpp(1),
    "mpp_executor_3seg": run_mpp(3),
    "place": run_place,
    "static_planner": run_static_planner,
    "verify_plan": run_verify,
    "to_sql": to_sql,
}


def test_the_operator_set():
    """Adding an operator to the IR means adding it here — and so to
    every consumer below."""
    assert set(OPERATORS) == set(INSTANCES) == set(DEFECTIVE)


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize("operator", OPERATORS, ids=lambda cls: cls.__name__)
def test_every_consumer_accepts_every_operator(operator, consumer):
    CONSUMERS[consumer](INSTANCES[operator]())
