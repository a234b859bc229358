"""MPP aggregate/distinct parity with the single node, and the motions
an aggregate needs depending on what it groups by."""

import pytest

from repro.mpp import HashDistribution, MPPDatabase
from repro.relational import (
    Aggregate,
    Database,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    col,
    const,
    eq_const,
    schema,
)
from repro.relational.expr import Compare

ROWS = [(i, i % 4, f"s{i % 3}") for i in range(50)]


def engines(nseg=4):
    single = Database()
    cluster = MPPDatabase(nseg=nseg)
    single.create_table(schema("t", "a:int", "b:int", "s:text"))
    cluster.create_table(
        schema("t", "a:int", "b:int", "s:text"), HashDistribution(["a"])
    )
    single.bulkload("t", ROWS)
    cluster.bulkload("t", ROWS)
    return single, cluster


def count_by(column, having=None):
    return Aggregate(Scan("t"), [column], [("count", None, "n")], having=having)


PLANS = {
    "filter": lambda: Project(
        Filter(Scan("t"), eq_const("t.b", 2)), [(col("t.a"), "a")]
    ),
    "distinct": lambda: Distinct(Project(Scan("t"), [(col("t.b"), "b")])),
    "count_by_b": lambda: count_by("t.b"),
    "having": lambda: count_by("t.b", Compare(">", col("n"), const(12))),
    "min_max": lambda: Aggregate(
        Scan("t"), ["t.s"], [("min", "t.a", "lo"), ("max", "t.a", "hi")]
    ),
    "global_count": lambda: Aggregate(Scan("t"), [], [("count", None, "n")]),
    "count_distinct": lambda: Aggregate(
        Scan("t"), ["t.b"], [("count_distinct", "t.s", "n")]
    ),
    "self_join": lambda: Project(
        HashJoin(Scan("t", "x"), Scan("t", "y"), ["x.a"], ["y.b"]),
        [(col("x.a"), "a")],
    ),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_parity_single_vs_mpp(name):
    single, cluster = engines()
    ours = single.query(PLANS[name]())
    theirs = cluster.query(PLANS[name]())
    assert ours.columns == theirs.columns
    assert ours.sorted_rows() == theirs.sorted_rows()


@pytest.mark.parametrize("nseg", [1, 2, 7])
def test_group_by_collocation_across_segment_counts(nseg):
    single, cluster = engines(nseg)
    assert (
        single.query(count_by("t.b")).sorted_rows()
        == cluster.query(count_by("t.b")).sorted_rows()
    )


def test_aggregate_on_distribution_key_needs_no_motion():
    _, cluster = engines()
    cluster.query(count_by("t.a"))
    explain = cluster.explain_last()
    # grouped by the distribution key: no redistribution below the gather
    assert "Redistribute Motion" not in explain


def test_aggregate_on_other_column_redistributes():
    _, cluster = engines()
    cluster.query(count_by("t.b"))
    assert "Redistribute Motion" in cluster.explain_last()


def test_global_aggregate_gathers():
    _, cluster = engines()
    result = cluster.query(PLANS["global_count"]())
    assert result.rows == [(len(ROWS),)]
    # below the aggregate, not just the master's gather of the result
    assert "Gather Motion to seg0" in cluster.explain_last()
