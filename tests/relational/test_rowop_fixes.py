"""Regression tests for the row-op correctness fixes shipped with the
columnar executor.

1. ``Table.insert`` is atomic under validation failure.
2. Negative ``Limit`` is rejected everywhere (construction, both
   executors, MPP, verifier) instead of silently slicing from the end.
3. ``Sort`` places NULLs first in BOTH directions.
4. ``UnionAll`` and ``Sort`` charge ``rows_output`` to the CostClock.
"""

import pytest

from repro.mpp import MPPDatabase
from repro.relational import (
    Database,
    Limit,
    Scan,
    Sort,
    SqliteMirror,
    Table,
    UnionAll,
    col,
    schema,
    to_sql,
)
from repro.relational.plan import Project
from repro.relational.types import ExecutionError, PlanError, SchemaError
from repro.relational.verify import verify_plan

from .rowref import ENGINES, run_query


def _unchecked_limit(child, limit):
    """Build a Limit bypassing the constructor guard, as a corrupted or
    hand-rolled plan tree would."""
    node = Limit.__new__(Limit)
    node.child = child
    node.limit = limit
    return node


class TestAtomicInsert:
    def _table(self):
        return Table(schema("t", "a:int", "b:text"))

    def test_bad_row_mid_batch_leaves_table_untouched(self):
        table = self._table()
        table.insert([(1, "x")])
        with pytest.raises(SchemaError):
            table.insert([(2, "y"), ("not-an-int", "z"), (3, "w")])
        # the valid prefix (2, 'y') must NOT have been stored
        assert table.rows == [(1, "x")]

    def test_key_set_not_polluted_by_failed_batch(self):
        table = Table(schema("t", "a:int", "b:text", unique_key=["a"]))
        with pytest.raises(SchemaError):
            table.insert([(1, "x"), (2, 3.5)])
        assert table.rows == []
        # key 1 must not linger in the dedup set after the rollback
        assert table.insert([(1, "fresh")]) == 1
        assert table.rows == [(1, "fresh")]

    def test_generator_input_is_staged(self):
        table = self._table()
        rows = ((i, "ok") if i < 2 else (i, object()) for i in range(3))
        with pytest.raises(SchemaError):
            table.insert(rows)
        assert table.rows == []


class TestNegativeLimit:
    def test_rejected_at_construction(self):
        with pytest.raises(PlanError):
            Limit(Scan("t"), -1)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rejected_by_executor(self, engine):
        db = Database("t")
        db.create_table(schema("t", "a:int"))
        db.bulkload("t", [(1,), (2,), (3,)])
        plan = _unchecked_limit(Scan("t"), -2)
        with pytest.raises(ExecutionError, match="non-negative"):
            run_query(db, plan, engine)

    def test_rejected_by_mpp_executor(self):
        db = MPPDatabase(nseg=2)
        db.create_table(schema("t", "a:int"))
        db.bulkload("t", [(1,), (2,)])
        plan = _unchecked_limit(Scan("t"), -1)
        with pytest.raises(ExecutionError, match="non-negative"):
            db.query(plan)

    def test_flagged_by_verifier_as_error(self):
        db = Database("t")
        db.create_table(schema("t", "a:int"))
        plan = _unchecked_limit(
            Sort(Scan("t", "x"), [("x.a", False)]), -3
        )
        report = verify_plan(plan, tables=db.tables)
        assert not report.ok
        finding = next(f for f in report.errors if "negative" in f.message)
        assert finding.code == "PKB208"

    def test_zero_limit_still_fine(self):
        db = Database("t")
        db.create_table(schema("t", "a:int"))
        db.bulkload("t", [(1,)])
        assert db.query(Limit(Scan("t"), 0)).rows == []


class TestNullsFirstSort:
    ROWS = [(3,), (None,), (1,), (None,), (2,)]

    def _db(self):
        db = Database("t")
        db.create_table(schema("t", "a:int"))
        db.bulkload("t", self.ROWS)
        return db

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nulls_first_both_directions(self, engine):
        db = self._db()
        asc = run_query(db, Sort(Scan("t", "x"), [("x.a", False)]), engine).rows
        desc = run_query(db, Sort(Scan("t", "x"), [("x.a", True)]), engine).rows
        assert asc == [(None,), (None,), (1,), (2,), (3,)]
        assert desc == [(None,), (None,), (3,), (2,), (1,)]

    def test_desc_sort_matches_sqlite(self):
        # the emitted SQL pins NULLS FIRST so sqlite agrees with us on
        # *unsorted* comparison of the ordered projection
        db = self._db()
        plan = Sort(
            Project(Scan("t", "x"), [(col("x.a"), "a")]), [("a", True)]
        )
        sql = to_sql(plan)
        assert "DESC NULLS FIRST" in sql
        ours = db.query(plan).rows
        with SqliteMirror(db) as mirror:
            theirs = mirror.run(sql)
        assert ours == theirs


class TestUnionSortCharges:
    def _db(self):
        db = Database("t")
        db.create_table(schema("t", "a:int"))
        db.bulkload("t", [(1,), (2,), (3,)])
        return db

    @pytest.mark.parametrize("engine", ENGINES)
    def test_union_charges_rows_output(self, engine):
        db = self._db()
        leg = Project(Scan("t", "x"), [(col("x.a"), "a")])
        leg2 = Project(Scan("t", "y"), [(col("y.a"), "a")])
        before = db.clock.rows_output
        run_query(db, UnionAll([leg, leg2]), engine)
        # 3 rows per Project leg + 6 rows emitted by the union itself
        assert db.clock.rows_output - before == 12

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sort_charges_probe_and_output(self, engine):
        db = self._db()
        before_out = db.clock.rows_output
        before_probe = db.clock.rows_probed
        run_query(db, Sort(Scan("t", "x"), [("x.a", True)]), engine)
        assert db.clock.rows_output - before_out == 3
        assert db.clock.rows_probed - before_probe == 3

    def test_mpp_union_charges_match_single_node(self):
        rows = [(i,) for i in range(10)]
        single = Database("s")
        single.create_table(schema("t", "a:int"))
        single.bulkload("t", rows)
        leg = lambda alias: Project(  # noqa: E731
            Scan("t", alias), [(col(f"{alias}.a"), "a")]
        )
        single.query(UnionAll([leg("x"), leg("y")]))

        mpp = MPPDatabase(nseg=2)
        mpp.create_table(schema("t", "a:int"))
        mpp.bulkload("t", rows)
        mpp.query(UnionAll([leg("x"), leg("y")]))
        mpp_output = sum(c.rows_output for c in mpp.segment_clocks)
        assert mpp_output == single.clock.rows_output
