"""The row engine: a single-node, set-oriented plan executor.

Materializing, hash-join based executor, kept beside the tests as the
reference the columnar operators are held to.  All work is charged to the
database's :class:`~repro.relational.cost.CostClock`; see that module for
why cost-model time (rather than raw wall-clock) drives the benchmark
comparisons.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.relational.cost import CostClock
from repro.relational.expr import resolve_column
from repro.relational.plan import (
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
from repro.relational.types import ExecutionError, Result, Row, Value


class Executor:
    """Evaluates logical plans against a table catalog (row-at-a-time).

    The reference the differential suite holds the columnar operators
    to, row order and clock charges included; tests build it by hand
    over a :class:`~repro.relational.database.Database`'s tables and
    clock.  The vectorized twin every database runs lives in
    :mod:`repro.relational.columnar_exec`.
    """

    def __init__(self, tables: Mapping[str, object], clock: CostClock) -> None:
        # ``tables``: mapping name -> Table
        self._tables = tables
        self._clock = clock

    # -- public API --------------------------------------------------------

    def run(self, plan: PlanNode) -> Result:
        bind_scans(plan, self._tables)
        columns, rows = self._eval(plan)
        return Result(columns, rows)

    # -- evaluation --------------------------------------------------------

    def _eval(self, plan: PlanNode) -> Tuple[List[str], List[Row]]:
        if isinstance(plan, Scan):
            return self._eval_scan(plan)
        if isinstance(plan, Values):
            return plan.output_columns, list(plan.rows)
        if isinstance(plan, Filter):
            return self._eval_filter(plan)
        if isinstance(plan, Project):
            return self._eval_project(plan)
        if isinstance(plan, HashJoin):
            return self._eval_join(plan)
        if isinstance(plan, AntiJoin):
            return self._eval_anti_join(plan)
        if isinstance(plan, Distinct):
            return self._eval_distinct(plan)
        if isinstance(plan, Aggregate):
            return self._eval_aggregate(plan)
        if isinstance(plan, UnionAll):
            return self._eval_union(plan)
        raise ExecutionError(f"unsupported plan node {type(plan).__name__}")

    def _eval_scan(self, plan: Scan) -> Tuple[List[str], List[Row]]:
        table = self._tables[plan.table_name]
        self._clock.rows_scanned += len(table)
        return plan.output_columns, list(table.rows)

    def _eval_filter(self, plan: Filter) -> Tuple[List[str], List[Row]]:
        columns, rows = self._eval(plan.child)
        predicate = plan.predicate.bind(columns)
        kept = [row for row in rows if predicate(row)]
        self._clock.rows_probed += len(rows)
        self._clock.rows_output += len(kept)
        return columns, kept

    def _eval_project(self, plan: Project) -> Tuple[List[str], List[Row]]:
        columns, rows = self._eval(plan.child)
        evaluators = [expr.bind(columns) for expr, _ in plan.outputs]
        out_columns = plan.output_columns
        out_rows = [tuple(fn(row) for fn in evaluators) for row in rows]
        self._clock.rows_output += len(out_rows)
        return out_columns, out_rows

    def _eval_join(self, plan: HashJoin) -> Tuple[List[str], List[Row]]:
        left_columns, left_rows = self._eval(plan.left)
        right_columns, right_rows = self._eval(plan.right)
        out_columns = left_columns + right_columns

        # Build on the smaller side.
        build_left = len(left_rows) <= len(right_rows)
        if build_left:
            build_cols, build_rows = left_columns, left_rows
            probe_cols, probe_rows = right_columns, right_rows
            build_keys, probe_keys = plan.left_keys, plan.right_keys
        else:
            build_cols, build_rows = right_columns, right_rows
            probe_cols, probe_rows = left_columns, left_rows
            build_keys, probe_keys = plan.right_keys, plan.left_keys

        build_pos = [resolve_column(k, build_cols) for k in build_keys]
        probe_pos = [resolve_column(k, probe_cols) for k in probe_keys]

        hash_table: Dict[Tuple, List[Row]] = defaultdict(list)
        for row in build_rows:
            key = tuple(row[pos] for pos in build_pos)
            if None in key:
                continue  # SQL semantics: NULL keys never join
            hash_table[key].append(row)
        self._clock.rows_built += len(build_rows)

        out_rows: List[Row] = []
        append = out_rows.append
        for row in probe_rows:
            key = tuple(row[pos] for pos in probe_pos)
            matches = hash_table.get(key)
            if not matches:
                continue
            for match in matches:
                if build_left:
                    append(match + row)
                else:
                    append(row + match)
        self._clock.rows_probed += len(probe_rows)
        self._clock.rows_output += len(out_rows)

        if plan.residual is not None:
            predicate = plan.residual.bind(out_columns)
            out_rows = [row for row in out_rows if predicate(row)]
        return out_columns, out_rows

    def _eval_anti_join(self, plan: AntiJoin) -> Tuple[List[str], List[Row]]:
        left_columns, left_rows = self._eval(plan.left)
        right_columns, right_rows = self._eval(plan.right)
        right_pos = [resolve_column(k, right_columns) for k in plan.right_keys]
        existing = {
            tuple(row[pos] for pos in right_pos) for row in right_rows
        }
        self._clock.rows_built += len(right_rows)
        left_pos = [resolve_column(k, left_columns) for k in plan.left_keys]
        out_rows = [
            row
            for row in left_rows
            if tuple(row[pos] for pos in left_pos) not in existing
        ]
        self._clock.rows_probed += len(left_rows)
        self._clock.rows_output += len(out_rows)
        return left_columns, out_rows

    def _eval_distinct(self, plan: Distinct) -> Tuple[List[str], List[Row]]:
        columns, rows = self._eval(plan.child)
        seen = set()
        out_rows = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                out_rows.append(row)
        self._clock.rows_probed += len(rows)
        self._clock.rows_output += len(out_rows)
        return columns, out_rows

    def _eval_aggregate(self, plan: Aggregate) -> Tuple[List[str], List[Row]]:
        columns, rows = self._eval(plan.child)
        group_pos = [resolve_column(c, columns) for c in plan.group_by]
        agg_pos: List[Optional[int]] = [
            resolve_column(c, columns) if c is not None else None
            for _, c, _ in plan.aggregates
        ]

        groups: Dict[Tuple, List[Row]] = defaultdict(list)
        for row in rows:
            groups[tuple(row[pos] for pos in group_pos)].append(row)
        if not plan.group_by and not groups:
            groups[()] = []  # global aggregate over empty input

        out_columns = plan.output_columns
        out_rows: List[Row] = []
        for key, members in groups.items():
            aggregated: List[Value] = []
            for (func, _, _), pos in zip(plan.aggregates, agg_pos):
                aggregated.append(_aggregate(func, pos, members))
            out_rows.append(key + tuple(aggregated))
        self._clock.rows_probed += len(rows)
        self._clock.rows_output += len(out_rows)

        if plan.having is not None:
            predicate = plan.having.bind(out_columns)
            out_rows = [row for row in out_rows if predicate(row)]
        return out_columns, out_rows

    def _eval_union(self, plan: UnionAll) -> Tuple[List[str], List[Row]]:
        out_columns = plan.output_columns
        out_rows: List[Row] = []
        for child in plan.children:
            _, rows = self._eval(child)
            out_rows.extend(rows)
        self._clock.rows_output += len(out_rows)
        return out_columns, out_rows


def _aggregate(func: str, pos: Optional[int], members: Sequence[Row]) -> Value:
    if func == "count":
        if pos is None:
            return len(members)
        return sum(1 for row in members if row[pos] is not None)
    if pos is None:
        raise ExecutionError(f"aggregate {func!r} requires a column")
    values = [row[pos] for row in members if row[pos] is not None]
    if func == "count_distinct":
        return len(set(values))
    if not values:
        return None
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    if func == "sum":
        return sum(values)
    raise ExecutionError(f"unknown aggregate {func!r}")
