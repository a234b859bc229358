"""Cost-clock arithmetic and Table storage behaviours."""

import pytest

from repro.relational import Table, schema
from repro.relational.columnar import values_of
from repro.relational.cost import (
    CostClock,
    QUERY_OVERHEAD_S,
    ROW_SCAN_S,
    ROW_SHIP_S,
)


class TestCostClock:
    def test_seconds_formula(self):
        clock = CostClock()
        clock.charge_query(3)
        clock.rows_scanned = 1000
        clock.rows_shipped = 10
        expected = 3 * QUERY_OVERHEAD_S + 1000 * ROW_SCAN_S + 10 * ROW_SHIP_S
        assert clock.seconds == pytest.approx(expected)

    def test_merge_adds(self):
        first = CostClock(queries=1, rows_scanned=10)
        second = CostClock(queries=2, rows_output=5)
        first.merge(second)
        assert first.queries == 3
        assert first.rows_scanned == 10 and first.rows_output == 5

    def test_delta_since(self):
        clock = CostClock(queries=5, rows_scanned=100)
        earlier = clock.copy()
        clock.charge_query()
        clock.rows_scanned += 50
        delta = clock.delta_since(earlier)
        assert delta.queries == 1 and delta.rows_scanned == 50
        assert delta.seconds == pytest.approx(
            QUERY_OVERHEAD_S + 50 * ROW_SCAN_S
        )

    def test_reset(self):
        clock = CostClock(queries=5, extra_seconds=1.5)
        clock.reset()
        assert clock.seconds == 0.0

    def test_snapshot_keys(self):
        snapshot = CostClock(queries=2).snapshot()
        assert snapshot["queries"] == 2 and "seconds" in snapshot


class TestTable:
    def make(self, unique=None):
        return Table(schema("t", "a:int", "b:int", unique_key=unique))

    def test_insert_and_iterate(self):
        table = self.make()
        table.insert([(1, 2), (3, 4)])
        assert list(table) == [(1, 2), (3, 4)]
        assert len(table) == 2

    def test_validation_rejects_bad_rows(self):
        table = self.make()
        with pytest.raises(Exception):
            table.insert([(1, "not an int")])
        with pytest.raises(Exception):
            table.insert([(1,)])  # arity

    def test_validation_can_be_skipped(self):
        table = self.make()
        table.insert([(1, "oops")], validate=False)
        assert len(table) == 1

    def test_unique_key_within_batch(self):
        table = self.make(unique=["a"])
        assert table.insert([(1, 1), (1, 2), (2, 2)]) == 2

    def test_delete_in(self):
        table = self.make()
        table.insert([(i, i % 2) for i in range(10)])
        removed = table.delete_in(["b"], {(0,)})
        assert removed == 5 and len(table) == 5
        assert list(table) == [(i, 1) for i in range(1, 10, 2)]  # order kept

    def test_delete_in_rebuilds_key_set(self):
        table = self.make(unique=["a"])
        table.insert([(1, 1), (2, 2)])
        table.delete_in(["a"], {(1,)})
        # the deleted key can be re-inserted
        assert table.insert([(1, 9)]) == 1

    def test_project_and_column(self):
        table = self.make()
        table.insert([(1, 2), (3, 4)])
        assert table.project(["b", "a"]) == [(2, 1), (4, 3)]
        cols = table.column_batch().cols  # typed arrays
        assert [values_of(col) for col in cols] == [[1, 3], [2, 4]]

    def test_truncate(self):
        table = self.make(unique=["a"])
        table.insert([(1, 1)])
        table.truncate()
        assert len(table) == 0
        assert table.insert([(1, 1)]) == 1  # key set cleared too
