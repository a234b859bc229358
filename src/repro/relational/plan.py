"""Logical query plans.

Plans are trees of :class:`PlanNode`.  Every node knows its output column
names (qualified like ``T2.x`` after aliased scans and joins), which is
what expressions bind against.  The same plan can be executed by the
single-node executor, compiled into an MPP plan with motion operators,
or rendered to SQL text for the sqlite conformance tests.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Mapping, Optional, Sequence, Tuple

from .expr import Expr
from .types import ExecutionError, PlanError, Row, ensure


class PlanNode:
    """Base class of all logical plan operators."""

    @property
    def output_columns(self) -> List[str]:
        raise NotImplementedError

    @property
    def children(self) -> List["PlanNode"]:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line operator description for EXPLAIN output."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Render the plan tree as indented text (EXPLAIN-style)."""
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.describe()}>"


class Scan(PlanNode):
    """Scan a stored table under an alias; output columns ``alias.col``."""

    def __init__(self, table_name: str, alias: Optional[str] = None) -> None:
        self.table_name = table_name
        self.alias = alias or table_name
        self._columns: Optional[List[str]] = None  # filled by binder

    def set_table_columns(self, column_names: Sequence[str]) -> None:
        self._columns = [f"{self.alias}.{name}" for name in column_names]

    @property
    def output_columns(self) -> List[str]:
        ensure(
            self._columns is not None,
            PlanError,
            f"scan of {self.table_name!r} not bound to a database",
        )
        return list(self._columns)  # type: ignore[arg-type]

    @property
    def children(self) -> List[PlanNode]:
        return []

    def describe(self) -> str:
        if self.alias != self.table_name:
            return f"Seq Scan on {self.table_name} {self.alias}"
        return f"Seq Scan on {self.table_name}"


class Values(PlanNode):
    """Inline literal rows (used in tests and small utilities)."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Row]) -> None:
        ensure(len(columns) > 0, PlanError, "Values needs columns")
        self._columns = list(columns)
        self.rows = [tuple(row) for row in rows]
        for index, row in enumerate(self.rows):
            ensure(
                len(row) == len(self._columns),
                PlanError,
                f"Values: row {index} has {len(row)} values for "
                f"{len(self._columns)} columns [{', '.join(self._columns)}]",
            )

    @property
    def output_columns(self) -> List[str]:
        return list(self._columns)

    @property
    def children(self) -> List[PlanNode]:
        return []

    def describe(self) -> str:
        return f"Values ({len(self.rows)} rows)"


class Filter(PlanNode):
    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate

    @property
    def output_columns(self) -> List[str]:
        return self.child.output_columns

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter: {self.predicate.to_sql()}"


class Project(PlanNode):
    """Projection with renaming: list of (expression, output name)."""

    def __init__(self, child: PlanNode, outputs: Sequence[Tuple[Expr, str]]) -> None:
        ensure(len(outputs) > 0, PlanError, "projection needs outputs")
        self.child = child
        self.outputs = list(outputs)

    @property
    def output_columns(self) -> List[str]:
        return [name for _, name in self.outputs]

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        items = ", ".join(f"{expr.to_sql()} AS {name}" for expr, name in self.outputs)
        return f"Project: {items}"


class HashJoin(PlanNode):
    """Equi-join on named key columns; extra non-equi predicates allowed.

    Output columns are the left columns followed by the right columns,
    keeping their qualified names.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        residual: Optional[Expr] = None,
    ) -> None:
        ensure(
            len(left_keys) == len(right_keys),
            PlanError,
            f"Hash Join: {len(left_keys)} left keys "
            f"[{', '.join(left_keys)}] vs {len(right_keys)} right keys "
            f"[{', '.join(right_keys)}]",
        )
        ensure(len(left_keys) > 0, PlanError, "hash join needs at least one key")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual

    @property
    def output_columns(self) -> List[str]:
        return self.left.output_columns + self.right.output_columns

    @property
    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        conds = " AND ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        if self.residual is not None:
            conds += f" AND {self.residual.to_sql()}"
        return f"Hash Join: {conds}"


class AntiJoin(PlanNode):
    """Left rows with NO key match on the right (NOT EXISTS).

    The grounding merge uses this to keep set-union semantics inside
    the database: candidate facts anti-joined against TΠ (and the
    graveyard of constraint-deleted facts) yield only genuinely new
    rows.  Output columns are the left columns only.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
    ) -> None:
        ensure(
            len(left_keys) == len(right_keys),
            PlanError,
            f"Hash Anti Join: {len(left_keys)} left keys "
            f"[{', '.join(left_keys)}] vs {len(right_keys)} right keys "
            f"[{', '.join(right_keys)}]",
        )
        ensure(len(left_keys) > 0, PlanError, "anti-join needs at least one key")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)

    @property
    def output_columns(self) -> List[str]:
        return self.left.output_columns

    @property
    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        conds = " AND ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"Hash Anti Join: {conds}"


class Distinct(PlanNode):
    def __init__(self, child: PlanNode) -> None:
        self.child = child

    @property
    def output_columns(self) -> List[str]:
        return self.child.output_columns

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return "Distinct"


#: Aggregate function names supported by :class:`Aggregate`.
AGG_FUNCS = frozenset({"count", "count_distinct", "min", "max", "sum"})


class Aggregate(PlanNode):
    """GROUP BY with aggregates and optional HAVING.

    ``aggregates`` is a list of (func, input column or None for COUNT(*),
    output name).  Output columns are the group-by columns followed by the
    aggregate outputs.  With an empty ``group_by`` a single global row is
    produced.
    """

    def __init__(
        self,
        child: PlanNode,
        group_by: Sequence[str],
        aggregates: Sequence[Tuple[str, Optional[str], str]],
        having: Optional[Expr] = None,
    ) -> None:
        for func, _, _ in aggregates:
            ensure(func in AGG_FUNCS, PlanError, f"unknown aggregate {func!r}")
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.having = having

    @property
    def output_columns(self) -> List[str]:
        return list(self.group_by) + [name for _, _, name in self.aggregates]

    @property
    def children(self) -> List[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        aggs = ", ".join(
            f"{func}({col or '*'}) AS {name}" for func, col, name in self.aggregates
        )
        desc = f"Aggregate: group by [{', '.join(self.group_by)}] -> {aggs}"
        if self.having is not None:
            desc += f" having {self.having.to_sql()}"
        return desc


class UnionAll(PlanNode):
    """Bag union; children must have identical arity."""

    def __init__(self, children: Sequence[PlanNode]) -> None:
        ensure(len(children) >= 1, PlanError, "union needs children")
        expected = children[0].output_columns
        for index, child in enumerate(children[1:], start=1):
            actual = child.output_columns
            ensure(
                len(actual) == len(expected),
                PlanError,
                f"UnionAll: child {index} has {len(actual)} columns "
                f"[{', '.join(actual)}], expected {len(expected)} "
                f"[{', '.join(expected)}]",
            )
        self._children = list(children)

    @property
    def output_columns(self) -> List[str]:
        return self._children[0].output_columns

    @property
    def children(self) -> List[PlanNode]:
        return list(self._children)

    def describe(self) -> str:
        return f"Append ({len(self._children)} children)"


def walk(plan: PlanNode) -> Iterator[PlanNode]:
    """Yield every node of the plan tree (pre-order)."""
    yield plan
    for child in plan.children:
        yield from walk(child)


def scans_of(plan: PlanNode) -> List[Scan]:
    return [node for node in walk(plan) if isinstance(node, Scan)]


def bind_scans(plan: PlanNode, tables: Mapping[str, Any]) -> None:
    """Resolve every Scan against a catalog of tables (anything with a
    ``schema``), filling in its output columns."""
    for node in scans_of(plan):
        table = tables.get(node.table_name)
        if table is None:
            raise ExecutionError(f"unknown table {node.table_name!r}")
        node.set_table_columns(table.schema.column_names)
