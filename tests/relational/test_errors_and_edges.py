"""Error paths and edge cases across the relational engine."""

import pytest

from repro.relational import (
    Aggregate,
    Database,
    ExecutionError,
    HashJoin,
    PlanError,
    Project,
    Scan,
    SchemaError,
    UnionAll,
    Values,
    schema,
)
from repro.relational.schema import Column, TableSchema


class TestSchemaErrors:
    def test_unknown_column_type(self):
        with pytest.raises(SchemaError):
            Column("a", "varchar")

    def test_duplicate_column(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", "int"), Column("a", "int")])

    def test_unique_key_must_exist(self):
        with pytest.raises(SchemaError):
            schema("t", "a:int", unique_key=["zz"])

    def test_empty_table(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_bad_spec(self):
        with pytest.raises(SchemaError):
            schema("t", "a")  # missing type

    def test_position_lookup_error(self):
        s = schema("t", "a:int")
        with pytest.raises(SchemaError):
            s.position("b")


class TestDatabaseErrors:
    def test_unknown_table(self):
        db = Database()
        with pytest.raises(ExecutionError):
            db.query(Scan("ghost"))
        with pytest.raises(ExecutionError):
            db.table("ghost")

    def test_duplicate_table(self):
        db = Database()
        db.create_table(schema("t", "a:int"))
        with pytest.raises(ExecutionError):
            db.create_table(schema("t", "a:int"))
        db.create_table(schema("t", "a:int", "b:int"), replace=True)
        assert len(db.table("t").schema) == 2

    def test_insert_arity_mismatch(self):
        db = Database()
        db.create_table(schema("t", "a:int"))
        db.create_table(schema("u", "a:int", "b:int"))
        db.bulkload("u", [(1, 2)])
        with pytest.raises(ExecutionError):
            db.insert_from("t", Scan("u"))

    def test_drop_table(self):
        db = Database()
        db.create_table(schema("t", "a:int"))
        db.drop_table("t")
        assert not db.has_table("t")


class TestPlanErrors:
    def test_join_key_arity(self):
        with pytest.raises(PlanError):
            HashJoin(Scan("a"), Scan("b"), ["a.x"], ["b.x", "b.y"])
        with pytest.raises(PlanError):
            HashJoin(Scan("a"), Scan("b"), [], [])

    def test_empty_projection(self):
        with pytest.raises(PlanError):
            Project(Scan("a"), [])

    def test_union_arity_mismatch(self):
        first = Values(["a"], [(1,)])
        second = Values(["a", "b"], [(1, 2)])
        with pytest.raises(PlanError):
            UnionAll([first, second])

    def test_unknown_aggregate(self):
        with pytest.raises(PlanError):
            Aggregate(Scan("a"), group_by=[], aggregates=[("avg", "a.x", "m")])

    def test_values_arity(self):
        with pytest.raises(PlanError):
            Values(["a", "b"], [(1,)])


class TestEdgeSemantics:
    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table(schema("t", "a:int", "b:float"))
        return database

    def test_empty_table_aggregate(self, db):
        plan = Aggregate(
            Scan("t"), group_by=[], aggregates=[("count", None, "n"), ("min", "t.a", "m")]
        )
        assert db.query(plan).rows == [(0, None)]

    def test_empty_group_by_yields_no_groups(self, db):
        plan = Aggregate(Scan("t"), group_by=["t.a"], aggregates=[("count", None, "n")])
        assert db.query(plan).rows == []

    def test_count_skips_nulls(self, db):
        db.bulkload("t", [(1, 1.0), (2, None), (None, 3.0)])
        plan = Aggregate(
            Scan("t"),
            group_by=[],
            aggregates=[("count", "t.b", "nb"), ("count", None, "n")],
        )
        assert db.query(plan).rows == [(2, 3)]

    def test_join_with_empty_side(self, db):
        db.create_table(schema("u", "c:int"))
        db.bulkload("t", [(1, 1.0)])
        plan = HashJoin(Scan("t"), Scan("u"), ["t.a"], ["u.c"])
        assert db.query(plan).rows == []

    def test_float_column_accepts_int(self, db):
        db.bulkload("t", [(1, 2)])  # int into float column is fine
        assert len(db.table("t")) == 1

    def test_bool_rejected_as_int(self, db):
        with pytest.raises(SchemaError):
            db.table("t").insert([(True, 1.0)])
