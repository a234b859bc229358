"""Render logical plans to SQL text.

ProbKB's contribution is a *SQL-based* grounding algorithm, so the
reproduction must be able to show — and validate — the actual SQL.  This
module renders the SPJA (select/project/join/aggregate) plans produced by
``repro.core.sqlgen`` into PostgreSQL-compatible SQL strings.  The same
strings run unmodified under stdlib sqlite3, which the conformance tests
use to cross-check our executor's results against a real RDBMS.

Only the plan shapes ProbKB emits are supported; arbitrary plans may be
rejected with :class:`~repro.relational.types.PlanError`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .expr import And, Col, Compare, Expr, IsNull, Not, Or
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
)
from .types import PlanError, ensure, sql_literal


def to_sql(plan: PlanNode) -> str:
    """Render a plan as a SQL SELECT statement."""
    return _render(plan)


def _render(plan: PlanNode) -> str:
    if isinstance(plan, UnionAll):
        parts = [_render(child) for child in plan.children]
        return "\nUNION ALL\n".join(parts)
    select = _Select()
    select.absorb(plan)
    return select.render()


#: The shape nodes of one SELECT block, ranked outermost-first: a block
#: is ``SELECT [DISTINCT] <projection> … [GROUP BY …]`` and nothing else.
_SHAPE_RANK = {Distinct: 1, Project: 2, Aggregate: 3}


class _Select:
    """Accumulates one SELECT block from a plan subtree."""

    def __init__(self) -> None:
        # what absorb() has passed on its way down, for its one rule
        self.shape_rank = 0  # rank of the innermost shape node
        self.has_from = False  # a FROM item (join, scan, values)
        self.has_where = False  # a WHERE predicate (filter, anti-join)
        self.outputs: Optional[List[Tuple[str, str]]] = None  # (sql, name)
        self.distinct = False
        self.from_items: List[str] = []  # "table alias"
        self.join_conditions: List[str] = []
        self.filters: List[str] = []
        self.group_by: List[str] = []
        self.aggregates: List[Tuple[str, Optional[str], str]] = []
        self.having_expr: Optional[Expr] = None

    # -- absorption of plan nodes ------------------------------------------

    def absorb(self, plan: PlanNode) -> None:
        rank = _SHAPE_RANK.get(type(plan))
        if rank is not None:
            # anything else would need a subquery, or HAVING for a
            # predicate above the GROUP BY; flattening it prints SQL
            # that means something different from the plan
            ensure(
                rank > self.shape_rank
                and not self.has_from
                and not (self.has_where and isinstance(plan, Aggregate)),
                PlanError,
                f"cannot render {type(plan).__name__} here: one SELECT block "
                "takes Distinct, Project, Aggregate in that order, above its "
                "FROM items, with predicates below the Aggregate",
            )
            self.shape_rank = rank
        elif isinstance(plan, (Filter, AntiJoin)):
            self.has_where = True
        else:
            self.has_from = True
        if isinstance(plan, Project):
            self.outputs = [(expr.to_sql(), name) for expr, name in plan.outputs]
            self.absorb(plan.child)
        elif isinstance(plan, Distinct):
            self.distinct = True
            self.absorb(plan.child)
        elif isinstance(plan, Aggregate):
            self.group_by = list(plan.group_by)
            self.aggregates = list(plan.aggregates)
            self.having_expr = plan.having
            self.absorb(plan.child)
        elif isinstance(plan, Filter):
            self.filters.append(plan.predicate.to_sql())
            self.absorb(plan.child)
        elif isinstance(plan, HashJoin):
            self.absorb(plan.left)
            self.absorb(plan.right)
            for left_key, right_key in zip(plan.left_keys, plan.right_keys):
                self.join_conditions.append(f"{left_key} = {right_key}")
            if plan.residual is not None:
                self.join_conditions.append(plan.residual.to_sql())
        elif isinstance(plan, AntiJoin):
            self.absorb(plan.left)
            self.filters.append(_not_exists_sql(plan, _projected(plan.left)))
        elif isinstance(plan, Scan):
            if plan.alias != plan.table_name:
                self.from_items.append(f"{plan.table_name} {plan.alias}")
            else:
                self.from_items.append(plan.table_name)
        elif isinstance(plan, Values):
            rows_sql = ", ".join(
                "(" + ", ".join(sql_literal(v) for v in row) + ")"
                for row in plan.rows
            )
            cols = ", ".join(c.split(".")[-1] for c in plan.output_columns)
            self.from_items.append(f"(VALUES {rows_sql}) AS v({cols})")
        else:
            raise PlanError(f"cannot render {type(plan).__name__} to SQL")

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        select_list = self._select_list()
        ensure(bool(self.from_items), PlanError, "SELECT without FROM")
        sql = ["SELECT " + ("DISTINCT " if self.distinct else "") + select_list]
        sql.append("FROM " + ", ".join(self.from_items))
        where = self.join_conditions + self.filters
        if where:
            sql.append("WHERE " + "\n  AND ".join(where))
        if self.group_by:
            sql.append("GROUP BY " + ", ".join(self.group_by))
        if self.having_expr is not None:
            # HAVING must use the aggregate expressions themselves;
            # the plan's predicate references their output aliases
            rewritten = _inline_aggregates(self.having_expr, self._agg_aliases())
            sql.append("HAVING " + rewritten.to_sql())
        return "\n".join(sql)

    def _agg_aliases(self) -> dict:
        return {
            name: _agg_sql(func, column)
            for func, column, name in self.aggregates
        }

    def _select_list(self) -> str:
        if self.outputs is not None:
            # a projection above the aggregate narrows the select list
            aliases = self._agg_aliases()
            return ", ".join(
                aliases.get(sql, sql) if sql == name
                else f"{aliases.get(sql, sql)} AS {_unqualify(name)}"
                for sql, name in self.outputs
            )
        if self.aggregates:
            items = list(self.group_by)
            for func, column, name in self.aggregates:
                items.append(f"{_agg_sql(func, column)} AS {name}")
            return ", ".join(items)
        return "*"


def _agg_sql(func: str, column: Optional[str]) -> str:
    if func == "count":
        return f"COUNT({column})" if column else "COUNT(*)"
    if func == "count_distinct":
        ensure(column is not None, PlanError, "COUNT(DISTINCT) needs a column")
        return f"COUNT(DISTINCT {column})"
    ensure(column is not None, PlanError, f"{func} needs a column")
    return f"{func.upper()}({column})"


def _unqualify(name: str) -> str:
    """Output names must be bare identifiers in SQL AS clauses."""
    return name.split(".")[-1]


class _Raw(Expr):
    """A pre-rendered SQL fragment (used when inlining aggregates)."""

    def __init__(self, text: str) -> None:
        self.text = text

    def to_sql(self) -> str:
        return self.text

    def referenced_columns(self) -> List[str]:  # pragma: no cover - render only
        return []


def _inline_aggregates(expr: Expr, aliases: dict) -> Expr:
    """Rewrite an expression, replacing references to aggregate output
    aliases with the aggregate expressions themselves."""
    if isinstance(expr, Col):
        if expr.name in aliases:
            return _Raw(aliases[expr.name])
        return expr
    if isinstance(expr, Compare):
        return Compare(
            expr.op,
            _inline_aggregates(expr.left, aliases),
            _inline_aggregates(expr.right, aliases),
        )
    if isinstance(expr, And):
        return And(*[_inline_aggregates(op, aliases) for op in expr.operands])
    if isinstance(expr, Or):
        return Or(*[_inline_aggregates(op, aliases) for op in expr.operands])
    if isinstance(expr, Not):
        return Not(_inline_aggregates(expr.operand, aliases))
    if isinstance(expr, IsNull):
        return IsNull(_inline_aggregates(expr.operand, aliases), expr.negated)
    return expr


def _projected(plan: PlanNode) -> dict:
    """Output alias -> SQL expression of the projection under a chain of
    anti-joins (empty when there is none)."""
    while isinstance(plan, AntiJoin):
        plan = plan.left
    if isinstance(plan, Project):
        return {name: expr.to_sql() for expr, name in plan.outputs}
    return {}


def _not_exists_sql(plan: AntiJoin, aliases: dict) -> str:
    """Render an anti-join whose right side is a (filtered) table scan
    as a correlated NOT EXISTS predicate.  A left key that is one of the
    ``aliases`` of a projection below is replaced by its expression:
    inside the subquery the bare alias would name the probed table's
    own column."""
    right = plan.right
    extra = []
    if isinstance(right, Filter):
        extra.append(right.predicate.to_sql())
        right = right.child
    ensure(
        isinstance(right, Scan),
        PlanError,
        "anti-join SQL rendering requires a scan on the right side",
    )
    alias = f"anti_{right.alias}"
    conditions = [
        f"{alias}.{_unqualify(rk)} = {aliases.get(lk, lk)}"
        for lk, rk in zip(plan.left_keys, plan.right_keys)
    ] + [cond.replace(f"{right.alias}.", f"{alias}.") for cond in extra]
    return (
        f"NOT EXISTS (SELECT 1 FROM {right.table_name} {alias} "
        f"WHERE {' AND '.join(conditions)})"
    )
