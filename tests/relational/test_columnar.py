"""Unit tests for the columnar batch representation and kernels.

Every kernel must behave identically on typed columns and on list
columns, which select its pure-Python path; the tests that matter run
on both via the ``list_columns`` fixture (``conftest.py``).
"""

import pickle

import pytest

from repro.relational.columnar import (
    ColumnBatch,
    aggregate_column,
    anti_join_indices,
    distinct_indices,
    group_indices,
    join_indices,
    predicate_mask,
)
from repro.relational import (
    Aggregate,
    Database,
    HashJoin,
    Project,
    Scan,
    Values,
    operators,
    schema,
)
from repro.relational.cost import CostClock
from repro.relational.expr import (
    Compare,
    Expr,
    IsNull,
    Not,
    Or,
    col,
    conj,
    const,
    eq_const,
)

from .conftest import listed
from .rowref import run_query


def batch_of(columns, rows, lists):
    """``rows`` as a batch: the kinds ``column_of`` gives, or all lists."""
    batch = ColumnBatch.from_rows(columns, rows)
    return listed(batch) if lists else batch


class TestColumnBatch:
    def test_roundtrip(self):
        rows = [(1, "a", None), (2, "b", 3.5)]
        batch = ColumnBatch.from_rows(["x", "y", "z"], rows)
        assert batch.nrows == 2
        assert batch.to_rows() == rows
        assert batch.columns == ["x", "y", "z"]

    def test_gather(self):
        rows = [(i, i * 10) for i in range(5)]
        batch = ColumnBatch.from_rows(["a", "b"], rows)
        assert batch.gather([3, 0]).to_rows() == [(3, 30), (0, 0)]

    def test_rename_shares_columns(self):
        batch = ColumnBatch.from_rows(["a"], [(1,), (2,)])
        renamed = batch.rename(["b"])
        assert renamed.columns == ["b"]
        assert renamed.cols[0] is batch.cols[0]

    def test_pickle_ships_array_buffers(self, list_columns):
        rows = [(i, float(i), "s", None if i % 7 else i) for i in range(200)]
        batch = batch_of(["a", "b", "c", "d"], rows, list_columns)
        wire = pickle.dumps(batch)
        if not list_columns:
            # three typed columns at 8 bytes a value, one mask, one list
            assert len(wire) < 200 * (3 * 8 + 1 + 8)
        shipped = pickle.loads(wire)
        assert shipped.columns == batch.columns
        assert shipped.to_rows() == rows
        assert shipped.nrows == batch.nrows
        assert [type(col) for col in shipped.cols] == [type(col) for col in batch.cols]

    def test_int_array_rejects_floats_and_strings(self, list_columns):
        ints = batch_of(["a"], [(1,), (2,)], list_columns)
        floats = batch_of(["a"], [(1.5,), (2.5,)], list_columns)
        strings = batch_of(["a"], [("x",), ("y",)], list_columns)
        nulls = batch_of(["a"], [(1,), (None,)], list_columns)
        if list_columns:
            assert ints.int_array(0) is None
        else:
            assert list(ints.int_array(0)) == [1, 2]
        # these must never take the int fast path, whatever their kind
        assert floats.int_array(0) is None
        assert strings.int_array(0) is None
        assert nulls.int_array(0) is None

    def test_huge_ints_stay_exact(self, list_columns):
        # 2**63 overflows int64: conversion must bail out, not truncate
        batch = batch_of(["a"], [(2 ** 63,), (1,)], list_columns)
        assert batch.int_array(0) is None
        assert batch.to_rows() == [(2 ** 63,), (1,)]


class TestJoinKernel:
    @pytest.fixture(autouse=True)
    def _kinds(self, list_columns):
        self.lists = list_columns

    def _join(self, left_rows, right_rows, lpos, rpos):
        left = batch_of(
            [f"l{i}" for i in range(len(left_rows[0]) if left_rows else 1)],
            left_rows,
            self.lists,
        )
        right = batch_of(
            [f"r{i}" for i in range(len(right_rows[0]) if right_rows else 1)],
            right_rows,
            self.lists,
        )
        lidx, ridx, built, probed = join_indices(left, right, lpos, rpos)
        rows = [
            left_rows[li] + right_rows[ri]
            for li, ri in zip([int(i) for i in lidx], [int(i) for i in ridx])
        ]
        return rows, built, probed

    def test_matches_row_engine_order(self, list_columns):
        # build side = smaller (right here); output must be probe-major
        # with build matches in original build order
        left = [(1, "a"), (2, "b"), (1, "c"), (3, "d")]
        right = [(1, "X"), (1, "Y")]
        rows, built, probed = self._join(left, right, [0], [0])
        assert rows == [
            (1, "a", 1, "X"),
            (1, "a", 1, "Y"),
            (1, "c", 1, "X"),
            (1, "c", 1, "Y"),
        ]
        assert (built, probed) == (2, 4)

    def test_null_keys_never_match(self, list_columns):
        left = [(None, 1), (2, 2)]
        right = [(None, 9), (2, 8)]
        rows, _, _ = self._join(left, right, [0], [0])
        assert rows == [(2, 2, 2, 8)]

    def test_multi_column_keys(self, list_columns):
        left = [(1, 2, "a"), (1, 3, "b")]
        right = [(1, 2, "X"), (9, 9, "Y")]
        rows, _, _ = self._join(left, right, [0, 1], [0, 1])
        assert rows == [(1, 2, "a", 1, 2, "X")]

    def test_empty_sides(self, list_columns):
        assert self._join([], [(1, 2)], [0], [0])[0] == []
        assert self._join([(1, 2)], [], [0], [0])[0] == []

    def test_mixed_type_keys_fall_back(self, list_columns):
        # string keys can never use the int encoding
        left = [("k1", 1), ("k2", 2)]
        right = [("k1", 9)]
        rows, _, _ = self._join(left, right, [0], [0])
        assert rows == [("k1", 1, "k1", 9)]


class TestAntiJoinKernel:
    @pytest.fixture(autouse=True)
    def _kinds(self, list_columns):
        self.lists = list_columns

    def _anti(self, left_rows, right_rows):
        left = batch_of(["a", "b"], left_rows, self.lists)
        right = batch_of(["a", "b"], right_rows, self.lists)
        kept = anti_join_indices(left, right, [0], [0])
        return [left_rows[int(i)] for i in kept]

    def test_basic(self, list_columns):
        left = [(1, "a"), (2, "b"), (3, "c")]
        right = [(2, "x")]
        assert self._anti(left, right) == [(1, "a"), (3, "c")]

    def test_null_left_key_is_kept_unless_null_on_right(self, list_columns):
        # matches the row engine: the right side's key set contains the
        # NULL-bearing tuple, so a NULL left key is excluded only when a
        # NULL right key exists
        left = [(None, "a"), (1, "b")]
        assert self._anti(left, [(1, "x")]) == [(None, "a")]
        assert self._anti(left, [(None, "x")]) == [(1, "b")]

    def test_empty_right_keeps_all(self, list_columns):
        left = [(1, "a")]
        assert self._anti(left, []) == left


class TestDistinctAndGroup:
    def test_distinct_first_occurrence_order(self, list_columns):
        rows = [(2, "b"), (1, "a"), (2, "b"), (1, "z"), (1, "a")]
        batch = batch_of(["a", "b"], rows, list_columns)
        kept = [rows[int(i)] for i in distinct_indices(batch)]
        assert kept == [(2, "b"), (1, "a"), (1, "z")]

    def test_distinct_with_nulls(self, list_columns):
        rows = [(None,), (1,), (None,)]
        batch = batch_of(["a"], rows, list_columns)
        kept = [rows[int(i)] for i in distinct_indices(batch)]
        assert kept == [(None,), (1,)]

    def test_group_indices_first_occurrence(self):
        rows = [(1, 10), (2, 20), (1, 30)]
        batch = ColumnBatch.from_rows(["k", "v"], rows)
        groups = group_indices(batch, [0])
        assert list(groups) == [(1,), (2,)]
        assert groups[(1,)] == [0, 2]

    def test_global_group_over_empty_input(self):
        batch = ColumnBatch.from_rows(["k"], [])
        assert group_indices(batch, []) == {(): []}

    def test_aggregate_column(self):
        values = [3, None, 1, 3]
        assert aggregate_column("count", values, [0, 1, 2, 3]) == 3
        assert aggregate_column("count", None, [0, 1]) == 2
        assert aggregate_column("min", values, [0, 2]) == 1
        assert aggregate_column("max", values, [0, 2]) == 3
        assert aggregate_column("sum", values, [0, 2, 3]) == 7
        assert aggregate_column("count_distinct", values, [0, 1, 2, 3]) == 2
        assert aggregate_column("min", values, [1]) is None


class TestPredicateMask:
    def _mask(self, expr, rows, cols):
        batch = ColumnBatch.from_rows(cols, rows)
        return predicate_mask(expr, batch), batch

    def test_compare_vectorizes_with_numpy(self):
        rows = [(1,), (5,), (3,)]
        mask, _ = self._mask(eq_const("a", 3), rows, ["a"])
        assert [bool(b) for b in mask] == [False, False, True]

    def test_conjunction(self):
        rows = [(1, 1), (1, 2), (2, 1)]
        expr = conj(eq_const("a", 1), eq_const("b", 1))
        mask, _ = self._mask(expr, rows, ["a", "b"])
        assert [bool(b) for b in mask] == [True, False, False]

    def test_string_column_falls_back(self):
        mask, _ = self._mask(eq_const("a", "x"), [("x",), ("y",)], ["a"])
        assert mask is None


class TestSharedOperators:
    """The operator functions every engine host calls
    (:mod:`repro.relational.operators`), against the row ``Executor``."""

    def test_join_matches_row_executor(self, list_columns):
        # duplicate keys on both sides, NULL keys on both sides
        left = [(1, "a"), (2, "b"), (None, "n"), (1, "c")]
        right = [(1, "X"), (3, "Y"), (None, "Z"), (1, "W")]
        ours_clock = CostClock()
        ours = operators.join_batches(
            batch_of(["l.k", "l.v"], left, list_columns),
            batch_of(["r.k", "r.v"], right, list_columns),
            [0], [0], None, ours_clock,
        )

        db = Database("ref")
        db.create_table(schema("L", "k:int", "v:text"))
        db.create_table(schema("R", "k:int", "v:text"))
        db.bulkload("L", left)
        db.bulkload("R", right)
        db.clock.reset()
        reference = run_query(
            db, HashJoin(Scan("L", "l"), Scan("R", "r"), ["l.k"], ["r.k"])
        )
        assert ours.to_rows() == reference.rows
        assert ours.columns == reference.columns
        # the operator is handed batches, not tables, outside a statement
        db.clock.rows_scanned = db.clock.queries = 0
        assert ours_clock.snapshot() == db.clock.snapshot()

    def test_bound_steps_resolve_positions_and_pickle(self, list_columns):
        """``bind_step`` names every column by position, and the step a
        pool worker unpickles runs exactly as the master's."""
        left = batch_of(["l.k", "l.v"], [(1, 10), (2, None), (1, 30)], list_columns)
        right = batch_of(["r.k", "r.w"], [(1, 5), (2, 7)], list_columns)
        join = HashJoin(
            Values(left.columns, []), Values(right.columns, []), ["k"], ["r.k"],
            residual=Or(IsNull(col("v")), Not(Compare("<", col("w"), col("v")))),
        )
        group = Aggregate(
            Values(left.columns, []), ["k"], [("sum", "v", "total")],
            having=Compare(">", col("total"), const(15)),
        )
        rename = Project(Values(left.columns, []), [(col("v"), "v"), (const(0), "z")])
        for plan, inputs in [(join, [left, right]), (group, [left]), (rename, [left])]:
            step = operators.bind_step(plan, [batch.columns for batch in inputs])
            exprs = [e for e in step.params.values() if isinstance(e, Expr)]
            for expr in exprs + step.params.get("exprs", []):
                expr.bind([])  # no name left to look up
            ours, shipped = CostClock(), CostClock()
            direct = step.run(inputs, ours)
            copied = pickle.loads(pickle.dumps(step)).run(inputs, shipped)
            assert direct.to_rows() == copied.to_rows()
            assert direct.columns == copied.columns == step.columns
            assert ours.snapshot() == shipped.snapshot()
        assert operators.bind_step(join, [left.columns, right.columns]).run(
            [left, right], CostClock()
        ).to_rows() == [(2, None, 2, 7)]  # w < v on both k = 1 rows
