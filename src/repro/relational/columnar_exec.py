"""Columnar plan executor: the single-node plan walker.

Evaluates logical plan trees by carrying
:class:`~repro.relational.columnar.ColumnBatch` values between the
operator steps of :mod:`repro.relational.operators` (shared with the
MPP segments) and returns the root's batch — rows are built by
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

from typing import Mapping

from . import operators
from .columnar import ColumnBatch
from .cost import CostClock
from .plan import PlanNode, Scan, bind_scans
from .table import Table


class ColumnarExecutor:
    """Evaluates logical plans over columnar batches: a scan reads its
    table, any other node evaluates its children and runs its bound
    step (:func:`repro.relational.operators.bind_step`)."""

    def __init__(self, tables: Mapping[str, Table], clock: CostClock) -> None:
        self._tables = tables
        self._clock = clock

    def run(self, plan: PlanNode) -> ColumnBatch:
        bind_scans(plan, self._tables)
        return self._eval_batch(plan)

    def _eval_batch(self, plan: PlanNode) -> ColumnBatch:
        if isinstance(plan, Scan):
            return operators.scan_table(
                self._tables[plan.table_name], plan.output_columns, self._clock
            )
        inputs = [self._eval_batch(child) for child in plan.children]
        step = operators.bind_step(plan, [batch.columns for batch in inputs])
        return step.run(inputs, self._clock)
