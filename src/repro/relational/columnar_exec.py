"""Columnar plan executor: the single-node plan walker.

Evaluates logical plan trees by carrying
:class:`~repro.relational.columnar.ColumnBatch` values between the
operator functions of :mod:`repro.relational.operators` (shared with
the MPP segments) and returns the root's batch — rows are built by
whoever hands the result out of the engine.  Results are bit-identical
to the row-at-a-time reference engine — same rows, same order — and
every operator charges the :class:`~repro.relational.cost.CostClock`
the exact counters the reference charges for the same plan, so
``repro explain`` cost summaries and the modelled benchmark timings
are engine-independent.

:class:`~repro.relational.database.Database` always builds this
executor; the row engine (``relational/executor.py``) is the reference
tests construct by hand, and nothing here imports it.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from . import operators
from .columnar import ColumnBatch
from .cost import CostClock
from .expr import resolve_column
from .plan import (
    Aggregate,
    AntiJoin,
    Distinct,
    Filter,
    HashJoin,
    PlanNode,
    Project,
    Scan,
    UnionAll,
    Values,
    bind_scans,
)
from .table import Table
from .types import ExecutionError


class ColumnarExecutor:
    """Evaluates logical plans over columnar batches: resolves each
    node's column references and hands the batches to the shared
    operators in :mod:`repro.relational.operators`."""

    def __init__(self, tables: Mapping[str, Table], clock: CostClock) -> None:
        self._tables = tables
        self._clock = clock

    def run(self, plan: PlanNode) -> ColumnBatch:
        bind_scans(plan, self._tables)
        return self._eval_batch(plan)

    def _eval_batch(self, plan: PlanNode) -> ColumnBatch:
        clock = self._clock
        if isinstance(plan, Scan):
            return operators.scan_table(
                self._tables[plan.table_name], plan.output_columns, clock
            )
        if isinstance(plan, Values):
            return ColumnBatch.from_rows(plan.output_columns, plan.rows)
        if isinstance(plan, Filter):
            child = self._eval_batch(plan.child)
            return operators.filter_batch(child, plan.predicate, clock)
        if isinstance(plan, Project):
            child = self._eval_batch(plan.child)
            return operators.project_batch(
                child, plan.outputs, plan.output_columns, clock
            )
        if isinstance(plan, (HashJoin, AntiJoin)):
            left = self._eval_batch(plan.left)
            right = self._eval_batch(plan.right)
            lpos = [resolve_column(k, left.columns) for k in plan.left_keys]
            rpos = [resolve_column(k, right.columns) for k in plan.right_keys]
            if isinstance(plan, AntiJoin):
                return operators.anti_join_batches(left, right, lpos, rpos, clock)
            return operators.join_batches(
                left, right, lpos, rpos, plan.residual, clock
            )
        if isinstance(plan, Distinct):
            return operators.distinct_batch(self._eval_batch(plan.child), clock)
        if isinstance(plan, Aggregate):
            child = self._eval_batch(plan.child)
            group_pos = [resolve_column(c, child.columns) for c in plan.group_by]
            agg_pos: List[Optional[int]] = [
                resolve_column(c, child.columns) if c is not None else None
                for _, c, _ in plan.aggregates
            ]
            return operators.aggregate_batch(
                child, group_pos, plan.aggregates, agg_pos, plan.having,
                plan.output_columns, clock,
            )
        if isinstance(plan, UnionAll):
            children = [self._eval_batch(child) for child in plan.children]
            return operators.union_batches(children, plan.output_columns, clock)
        raise ExecutionError(f"unsupported plan node {type(plan).__name__}")
