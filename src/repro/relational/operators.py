"""Segment-local relational operators over column batches.

The one production definition of each operator's semantics and
:class:`~repro.relational.cost.CostClock` charges, and the one place a
plan node is turned into a call of them: :func:`bind_step` takes a
logical node and the column lists of its inputs, resolves every column
reference to a position once, and returns a :class:`Step` that runs the
node's kernel over input batches and a clock.  The same steps run as
the single-node :class:`~repro.relational.columnar_exec.ColumnarExecutor`
(one clock, whole tables) and as one MPP segment's share of a plan
(:mod:`repro.mpp.segments`, one clock per segment) — in the master
process or, pickled, inside a pool worker.

Rows, row order and charges are pinned against the row-at-a-time
reference engine in ``tests/relational/executor.py`` by
``tests/relational/test_differential.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
from .expr import And, Col, Compare, Const, Expr, IsNull, Not, Or, resolve_column
from .plan import (
    Aggregate,
    AntiJoin,
    Distinct,
    Filter,
    HashJoin,
    PlanNode,
    Project,
    UnionAll,
    Values,
)
from .table import Table
from .types import ExecutionError, Row

#: ``(function, argument column or None, output name)`` — the shape of
#: :attr:`repro.relational.plan.Aggregate.aggregates`
AggregateSpec = Tuple[str, Optional[str], str]


def scan_table(table: Table, columns: Sequence[str], clock: CostClock) -> ColumnBatch:
    """The table's stored batch under the scan's output column names."""
    clock.rows_scanned += len(table)
    return table.column_batch().rename(columns)


def values_batch(
    rows: Sequence[Row], out_columns: Sequence[str], clock: CostClock
) -> ColumnBatch:
    return ColumnBatch.from_rows(out_columns, rows)


def filter_batch(child: ColumnBatch, predicate: Expr, clock: CostClock) -> ColumnBatch:
    kept = child.gather(filter_batch_indices(predicate, child))
    clock.rows_probed += child.nrows
    clock.rows_output += kept.nrows
    return kept


def project_batch(
    child: ColumnBatch,
    exprs: Sequence[Expr],
    out_columns: Sequence[str],
    clock: CostClock,
) -> ColumnBatch:
    cols: List[ColumnData] = []
    for expr in exprs:
        if isinstance(expr, Col):
            cols.append(child.cols[expr.position(child.columns)])  # shared, never mutated
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
    *children: ColumnBatch, out_columns: Sequence[str], clock: CostClock
) -> ColumnBatch:
    out = ColumnBatch.concat(out_columns, children)
    clock.rows_output += out.nrows
    return out


# -- binding a plan node --------------------------------------------------------


class Step(NamedTuple):
    """One plan operator bound to its inputs: a kernel of this module
    and every argument it takes besides the input batches and the
    clock, with column references as positions.  Plain data, so it
    pickles to a pool worker as it is."""

    kernel: Callable[..., ColumnBatch]
    params: Dict[str, Any]
    #: the operator's output columns
    columns: List[str]

    def run(self, inputs: Sequence[ColumnBatch], clock: CostClock) -> ColumnBatch:
        return self.kernel(*inputs, clock=clock, **self.params)


def bind_step(plan: PlanNode, inputs: Sequence[Sequence[str]]) -> Step:
    """``plan``'s operator over inputs with the column lists ``inputs``
    (one per child, in order), every column reference resolved once:
    join keys, group and aggregate columns, and the projection, filter,
    residual and HAVING expressions."""
    if isinstance(plan, Values):
        columns = plan.output_columns
        return Step(values_batch, {"rows": plan.rows, "out_columns": columns}, columns)
    if isinstance(plan, (HashJoin, AntiJoin)):
        left, right = inputs
        keys = {
            "lpos": [resolve_column(k, left) for k in plan.left_keys],
            "rpos": [resolve_column(k, right) for k in plan.right_keys],
        }
        if isinstance(plan, AntiJoin):
            return Step(anti_join_batches, keys, list(left))
        columns = list(left) + list(right)
        residual = None if plan.residual is None else _at(plan.residual, columns)
        return Step(join_batches, {**keys, "residual": residual}, columns)
    if isinstance(plan, UnionAll):
        columns = plan.output_columns
        return Step(union_batches, {"out_columns": columns}, columns)
    (child,) = inputs
    if isinstance(plan, Filter):
        return Step(filter_batch, {"predicate": _at(plan.predicate, child)}, list(child))
    if isinstance(plan, Project):
        columns = plan.output_columns
        exprs = [_at(expr, child) for expr, _ in plan.outputs]
        return Step(project_batch, {"exprs": exprs, "out_columns": columns}, columns)
    if isinstance(plan, Distinct):
        return Step(distinct_batch, {}, list(child))
    if isinstance(plan, Aggregate):
        columns = plan.output_columns
        params: Dict[str, Any] = {
            "group_pos": [resolve_column(c, child) for c in plan.group_by],
            "aggregates": plan.aggregates,
            "agg_pos": [
                None if c is None else resolve_column(c, child)
                for _, c, _ in plan.aggregates
            ],
            # HAVING binds against the aggregate's output
            "having": None if plan.having is None else _at(plan.having, columns),
            "out_columns": columns,
        }
        return Step(aggregate_batch, params, columns)
    raise ExecutionError(f"unsupported plan node {type(plan).__name__}")


def _at(expr: Expr, columns: Sequence[str]) -> Expr:
    """``expr`` with every column reference resolved against ``columns``."""
    if isinstance(expr, Col):
        return Col(expr.name, resolve_column(expr.name, columns))
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Compare):
        return Compare(expr.op, _at(expr.left, columns), _at(expr.right, columns))
    if isinstance(expr, (And, Or)):
        return type(expr)(*[_at(operand, columns) for operand in expr.operands])
    if isinstance(expr, IsNull):
        return IsNull(_at(expr.operand, columns), expr.negated)
    if isinstance(expr, Not):
        return Not(_at(expr.operand, columns))
    return expr  # an expression type the kernels bind by name
