"""Smoke tests for the relational engine built alongside development."""

import pytest

from repro.relational import (
    Aggregate,
    Database,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    SqliteMirror,
    UnionAll,
    col,
    const,
    eq_const,
    schema,
    to_sql,
)
from repro.relational.expr import Compare


@pytest.fixture
def db():
    database = Database("test")
    database.create_table(schema("person", "id:int", "name:text", "city:int"))
    database.create_table(schema("city", "id:int", "name:text", "pop:int"))
    database.bulkload(
        "person",
        [(1, "ann", 10), (2, "bob", 10), (3, "carol", 20), (4, "dave", None)],
    )
    database.bulkload("city", [(10, "gainesville", 100), (20, "orlando", 200)])
    return database


def test_scan_and_filter(db):
    plan = Filter(Scan("person"), eq_const("person.city", 10))
    result = db.query(plan)
    assert sorted(result.column("name")) == ["ann", "bob"]


def test_join(db):
    plan = HashJoin(Scan("person", "p"), Scan("city", "c"), ["p.city"], ["c.id"])
    result = db.query(plan)
    assert len(result) == 3  # dave has NULL city and never joins


def test_join_project_sql_conformance(db):
    plan = Project(
        HashJoin(Scan("person", "p"), Scan("city", "c"), ["p.city"], ["c.id"]),
        [(col("p.name"), "person_name"), (col("c.name"), "city_name")],
    )
    ours = db.query(plan).sorted_rows()
    with SqliteMirror(db) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


def test_aggregate_having(db):
    plan = Aggregate(
        Scan("person", "p"),
        group_by=["p.city"],
        aggregates=[("count", None, "n")],
        having=Compare(">", col("n"), const(1)),
    )
    result = db.query(plan)
    assert result.rows == [(10, 2)]


def test_aggregate_sql_conformance(db):
    plan = Aggregate(
        Scan("person", "p"),
        group_by=["p.city"],
        aggregates=[("count", None, "n"), ("min", "p.id", "min_id")],
    )
    ours = db.query(plan).sorted_rows()
    with SqliteMirror(db) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


def test_distinct_and_union(db):
    cities = Project(Scan("person"), [(col("person.city"), "c")])
    plan = Distinct(UnionAll([cities, cities]))
    result = db.query(plan)
    assert sorted(result.rows, key=lambda r: (r[0] is not None, r[0])) == [
        (None,),
        (10,),
        (20,),
    ]


def test_unique_key_dedup():
    database = Database()
    database.create_table(schema("t", "a:int", "b:int", unique_key=["a"]))
    database.bulkload("t", [(1, 1), (1, 2), (2, 1)])
    assert len(database.table("t")) == 2


def test_delete_in(db):
    from repro.relational import Values

    keys = Values(["k"], [(10,)])
    removed = db.delete_in("person", ["city"], keys)
    assert removed == 2
    assert len(db.table("person")) == 2


def test_insert_from(db):
    db.create_table(schema("names", "n:text"))
    count = db.insert_from("names", Project(Scan("person"), [(col("person.name"), "n")]))
    assert count == 4


def test_cost_clock_monotone(db):
    before = db.clock.seconds
    db.query(Scan("person"))
    assert db.clock.seconds > before
    assert db.clock.queries >= 1
