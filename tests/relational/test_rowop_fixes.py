"""Regression tests for the row-op correctness fixes shipped with the
columnar executor.

1. ``Table.insert`` is atomic under validation failure.
2. ``UnionAll`` charges ``rows_output`` to the CostClock.
"""

import pytest

from repro.mpp import MPPDatabase
from repro.relational import Database, Scan, Table, UnionAll, col, schema
from repro.relational.plan import Project
from repro.relational.types import SchemaError

from .rowref import ENGINES, run_query


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


class TestUnionCharges:
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
