"""Scalar expressions used in plan predicates and projections.

Expressions reference columns *by name* against the output schema of the
plan node they are attached to.  Before execution they are bound to
column positions (:meth:`Expr.bind`), producing a fast evaluator closure.

SQL NULL semantics are followed for comparisons: any comparison with NULL
is false (we use two-valued logic with NULL comparisons collapsing to
false, which is what the ProbKB queries rely on).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence

from .types import PlanError, Row, Value, sql_literal

BoundEvaluator = Callable[[Row], Value]


class Expr:
    """Base expression node."""

    def bind(self, columns: Sequence[str]) -> BoundEvaluator:
        """Return a row -> value evaluator for the given output columns."""
        raise NotImplementedError

    def referenced_columns(self) -> List[str]:
        """All column names this expression reads."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render as a SQL expression string."""
        raise NotImplementedError

    # Convenience builders so predicates read naturally in sqlgen code.
    def eq(self, other: "Expr") -> "Compare":
        return Compare("=", self, other)

    def ne(self, other: "Expr") -> "Compare":
        return Compare("<>", self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_sql()})"


class Col(Expr):
    """A reference to an output column by (possibly qualified) name, or
    by ``pos`` once :func:`repro.relational.operators.bind_step` has
    resolved it against its operator's input."""

    def __init__(self, name: str, pos: Optional[int] = None) -> None:
        if not name:
            raise PlanError("column reference must be non-empty")
        self.name = name
        self.pos = pos

    def position(self, columns: Sequence[str]) -> int:
        """Where this column is in ``columns``."""
        return resolve_column(self.name, columns) if self.pos is None else self.pos

    def bind(self, columns: Sequence[str]) -> BoundEvaluator:
        pos = self.position(columns)
        return lambda row: row[pos]

    def referenced_columns(self) -> List[str]:
        return [self.name]

    def to_sql(self) -> str:
        return self.name


class Const(Expr):
    """A literal value."""

    def __init__(self, value: Value) -> None:
        self.value = value

    def bind(self, columns: Sequence[str]) -> BoundEvaluator:
        value = self.value
        return lambda row: value

    def referenced_columns(self) -> List[str]:
        return []

    def to_sql(self) -> str:
        return sql_literal(self.value)


COMPARE_OPS: Dict[str, Callable[[Value, Value], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Compare(Expr):
    """Binary comparison with SQL NULL semantics (NULL compares false)."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in COMPARE_OPS:
            raise PlanError(f"unknown comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, columns: Sequence[str]) -> BoundEvaluator:
        lhs = self.left.bind(columns)
        rhs = self.right.bind(columns)
        fn = COMPARE_OPS[self.op]

        def evaluate(row: Row) -> bool:
            left_value = lhs(row)
            right_value = rhs(row)
            if left_value is None or right_value is None:
                return False
            return fn(left_value, right_value)

        return evaluate

    def referenced_columns(self) -> List[str]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"


class IsNull(Expr):
    def __init__(self, operand: Expr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def bind(self, columns: Sequence[str]) -> BoundEvaluator:
        inner = self.operand.bind(columns)
        if self.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.to_sql()} {suffix}"


class And(Expr):
    def __init__(self, *operands: Expr) -> None:
        if not operands:
            raise PlanError("AND needs at least one operand")
        self.operands = list(operands)

    def bind(self, columns: Sequence[str]) -> BoundEvaluator:
        bound = [op.bind(columns) for op in self.operands]
        return lambda row: all(fn(row) for fn in bound)

    def referenced_columns(self) -> List[str]:
        return [c for op in self.operands for c in op.referenced_columns()]

    def to_sql(self) -> str:
        return " AND ".join(op.to_sql() for op in self.operands)


class Or(Expr):
    def __init__(self, *operands: Expr) -> None:
        if not operands:
            raise PlanError("OR needs at least one operand")
        self.operands = list(operands)

    def bind(self, columns: Sequence[str]) -> BoundEvaluator:
        bound = [op.bind(columns) for op in self.operands]
        return lambda row: any(fn(row) for fn in bound)

    def referenced_columns(self) -> List[str]:
        return [c for op in self.operands for c in op.referenced_columns()]

    def to_sql(self) -> str:
        return "(" + " OR ".join(op.to_sql() for op in self.operands) + ")"


class Not(Expr):
    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def bind(self, columns: Sequence[str]) -> BoundEvaluator:
        inner = self.operand.bind(columns)
        return lambda row: not inner(row)

    def referenced_columns(self) -> List[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"


def resolve_column(name: str, columns: Sequence[str]) -> int:
    """Resolve a column reference against an output column list.

    Matching rules (in priority order):
      1. exact match on the full (possibly qualified) name;
      2. unique match on the unqualified suffix — ``x`` matches ``T2.x``
         only if exactly one output column has suffix ``.x``.
    """
    try:
        return list(columns).index(name)
    except ValueError:
        pass
    if "." not in name:
        suffix = "." + name
        matches = [pos for pos, col in enumerate(columns) if col.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise PlanError(f"ambiguous column {name!r} among {list(columns)}")
    raise PlanError(f"cannot resolve column {name!r} among {list(columns)}")


def col(name: str) -> Col:
    return Col(name)


def const(value: Value) -> Const:
    return Const(value)


def eq(left: str, right: str) -> Compare:
    """Equality between two columns — the workhorse of batch-rule joins."""
    return Compare("=", Col(left), Col(right))


def eq_const(column_name: str, value: Value) -> Compare:
    return Compare("=", Col(column_name), Const(value))


def conj(*operands: Expr) -> Expr:
    """AND together operands, collapsing the single-operand case."""
    if len(operands) == 1:
        return operands[0]
    return And(*operands)
