"""Single-node database: a catalog of tables plus an executor and clock.

This is the stand-in for PostgreSQL in the reproduction.  It supports the
operations ProbKB's grounding and quality-control algorithms need:

* DDL: ``create_table`` (with optional unique key for set semantics);
* queries: ``query(plan)``;
* DML: ``insert_rows``, ``insert_from(plan)`` (INSERT ... SELECT),
  ``delete_in`` (DELETE ... WHERE (cols) IN (subquery)).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Sequence, Tuple

from .columnar import ColumnBatch
from .columnar_exec import ColumnarExecutor
from .cost import CostClock
from .plan import PlanNode
from .schema import TableSchema
from .table import Table, batch_of_result
from .types import ExecutionError, Result, Row
from .verify import verify_plan, verify_plans_enabled


class Database:
    """An in-memory single-node relational database."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}
        self.clock = CostClock()
        #: debug gate: statically verify every distinct plan once before
        #: it executes (switched on by the PROBKB_VERIFY_PLANS env var)
        self.verify_plans = verify_plans_enabled()
        self._verified_plans: "weakref.WeakSet[PlanNode]" = weakref.WeakSet()

    def _maybe_verify(self, plan: PlanNode) -> None:
        """Verify a plan once before its first execution (debug gate).

        The verifier is pure (it never binds scans or touches the
        clock), so results are bit-identical with the gate on or off;
        error-severity findings raise ``PlanVerificationError``,
        warnings are ignored at runtime."""
        if not self.verify_plans or plan in self._verified_plans:
            return
        verify_plan(plan, tables=self.tables, name="logical plan") \
            .raise_if_errors()
        self._verified_plans.add(plan)

    def _executor(self) -> ColumnarExecutor:
        return ColumnarExecutor(self.tables, self.clock)

    # -- DDL ---------------------------------------------------------------

    def create_table(self, table_schema: TableSchema, replace: bool = False) -> Table:
        if table_schema.name in self.tables and not replace:
            raise ExecutionError(f"table {table_schema.name!r} already exists")
        table = Table(table_schema)
        self.tables[table_schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        self.tables.pop(name, None)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise ExecutionError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    # -- queries -------------------------------------------------------------

    def _run(self, plan: PlanNode) -> ColumnBatch:
        """Execute a plan as one statement; the result stays columnar."""
        self._maybe_verify(plan)
        self.clock.charge_query()
        return self._executor().run(plan)

    def query(self, plan: PlanNode) -> Result:
        """Execute a read-only plan; charges one statement of overhead."""
        batch = self._run(plan)
        return Result(batch.columns, batch.to_rows())

    @property
    def elapsed_seconds(self) -> float:
        """Modelled elapsed time (same API as :class:`MPPDatabase`)."""
        return self.clock.seconds

    # -- DML -----------------------------------------------------------------

    def insert_rows(self, table_name: str, rows: Iterable[Row]) -> int:
        """Plain INSERT; charged as one statement."""
        self.clock.charge_query()
        table = self.table(table_name)
        inserted = table.insert(rows)
        self.clock.rows_inserted += inserted
        return inserted

    def bulkload(self, table_name: str, rows: Iterable[Row]) -> int:
        """COPY-style load: one statement regardless of row count."""
        return self.insert_rows(table_name, rows)

    def insert_from(self, table_name: str, plan: PlanNode) -> int:
        """INSERT INTO table SELECT ... — one statement."""
        result = self._run(plan)
        table = self.table(table_name)
        inserted = table.insert_batch(batch_of_result(table.schema, result))
        self.clock.rows_inserted += inserted
        return inserted

    def insert_from_with_ids(
        self,
        table_name: str,
        plan: PlanNode,
        next_id: int,
        pad_nulls: int = 0,
    ) -> Tuple[int, int]:
        """INSERT ... SELECT with a leading sequence column.

        Each result row is stored as ``(id, *row, NULL * pad_nulls)``
        with ids drawn from a sequence starting at ``next_id``.  Returns
        (rows inserted, next sequence value).  This is how grounding
        merges new facts into TΠ without round-tripping them through
        the client.
        """
        result = self._run(plan)
        table = self.table(table_name)
        inserted = table.insert_batch(
            batch_of_result(table.schema, result, next_id, pad_nulls)
        )
        self.clock.rows_inserted += inserted
        return inserted, next_id + result.nrows

    def delete_in(
        self,
        table_name: str,
        column_names: Sequence[str],
        key_plan: PlanNode,
    ) -> int:
        """DELETE FROM table WHERE (cols) IN (SELECT ... ) — one statement."""
        keys = self._run(key_plan)
        removed = self.table(table_name).delete_in(column_names, keys)
        self.clock.rows_output += removed
        return removed

    def truncate(self, table_name: str) -> None:
        self.clock.charge_query()
        self.table(table_name).truncate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name}, tables={list(self.tables)})"
