"""Segment-local relational operators over column batches.

The one production definition of each operator's semantics and
:class:`~repro.relational.cost.CostClock` charges.  Every function maps
:class:`~repro.relational.columnar.ColumnBatch` inputs to a fresh
output batch and charges the clock it is handed, so the same code runs
as the single-node :class:`~repro.relational.columnar_exec.ColumnarExecutor`
(one clock, whole tables) and as one MPP segment's share of a plan
(:mod:`repro.mpp.segments`, one clock per segment) — in the master
process or inside a pool worker.

Column references arrive resolved to positions: the callers already
hold the input schemas (the MPP planner needs them for collocation),
and positions survive pickling to a worker unchanged.

Rows, row order and charges are pinned against the row-at-a-time
:class:`~repro.relational.executor.Executor` by
``tests/relational/test_differential.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .columnar import (
    ColumnData,
    ColumnBatch,
    anti_join_indices,
    column_of,
    distinct_indices,
    filter_batch_indices,
    grouped_aggregates,
    join_indices,
)
from .cost import CostClock
from .expr import Col, Const, Expr, resolve_column
from .table import Table

#: ``(function, argument column or None, output name)`` — the shape of
#: :attr:`repro.relational.plan.Aggregate.aggregates`
AggregateSpec = Tuple[str, Optional[str], str]


def scan_table(table: Table, columns: Sequence[str], clock: CostClock) -> ColumnBatch:
    """The table's stored batch under the scan's output column names."""
    clock.rows_scanned += len(table)
    return table.column_batch().rename(columns)


def filter_batch(child: ColumnBatch, predicate: Expr, clock: CostClock) -> ColumnBatch:
    kept = child.gather(filter_batch_indices(predicate, child))
    clock.rows_probed += child.nrows
    clock.rows_output += kept.nrows
    return kept


def project_batch(
    child: ColumnBatch,
    outputs: Sequence[Tuple[Expr, str]],
    out_columns: Sequence[str],
    clock: CostClock,
) -> ColumnBatch:
    cols: List[ColumnData] = []
    for expr, _name in outputs:
        if isinstance(expr, Col):
            pos = resolve_column(expr.name, child.columns)
            cols.append(child.cols[pos])  # shared, never mutated
        elif isinstance(expr, Const):
            cols.append(column_of([expr.value] * child.nrows))
        else:
            evaluate = expr.bind(child.columns)
            cols.append(column_of([evaluate(row) for row in child.tuples()]))
    clock.rows_output += child.nrows
    return ColumnBatch(out_columns, cols, child.nrows)


def join_batches(
    left: ColumnBatch,
    right: ColumnBatch,
    lpos: Sequence[int],
    rpos: Sequence[int],
    residual: Optional[Expr],
    clock: CostClock,
) -> ColumnBatch:
    """Equi-join; NULL keys never match, the residual predicate filters
    the joined rows (uncharged, as in the row engine)."""
    lidx, ridx, built, probed = join_indices(left, right, lpos, rpos)
    out = ColumnBatch(
        left.columns + right.columns,
        left.gather(lidx).cols + right.gather(ridx).cols,
        len(lidx),
    )
    clock.rows_built += built
    clock.rows_probed += probed
    clock.rows_output += out.nrows
    if residual is not None:
        out = out.gather(filter_batch_indices(residual, out))
    return out


def anti_join_batches(
    left: ColumnBatch,
    right: ColumnBatch,
    lpos: Sequence[int],
    rpos: Sequence[int],
    clock: CostClock,
) -> ColumnBatch:
    kept = left.gather(anti_join_indices(left, right, lpos, rpos))
    clock.rows_built += right.nrows
    clock.rows_probed += left.nrows
    clock.rows_output += kept.nrows
    return kept


def distinct_batch(child: ColumnBatch, clock: CostClock) -> ColumnBatch:
    deduped = child.gather(distinct_indices(child))
    clock.rows_probed += child.nrows
    clock.rows_output += deduped.nrows
    return deduped


def aggregate_batch(
    child: ColumnBatch,
    group_pos: Sequence[int],
    aggregates: Sequence[AggregateSpec],
    agg_pos: Sequence[Optional[int]],
    having: Optional[Expr],
    out_columns: Sequence[str],
    clock: CostClock,
) -> ColumnBatch:
    """Group-by + aggregates, groups in first-occurrence order; a
    global aggregate (no group columns) over empty input emits one
    row.  HAVING filters the charged output, like a join residual."""
    cols, ngroups = grouped_aggregates(
        child, group_pos, [func for func, _, _ in aggregates], agg_pos
    )
    out = ColumnBatch(out_columns, cols, ngroups)
    clock.rows_probed += child.nrows
    clock.rows_output += out.nrows
    if having is not None:
        out = out.gather(filter_batch_indices(having, out))
    return out


def union_batches(
    children: Sequence[ColumnBatch], out_columns: Sequence[str], clock: CostClock
) -> ColumnBatch:
    out = ColumnBatch.concat(out_columns, children)
    clock.rows_output += out.nrows
    return out

