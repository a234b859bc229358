"""PlanCheck: static verifier for logical query plans.

The grounding engine is "just SQL" pushed through a relational
executor; bag/set mix-ups or mis-bound columns there produce plausible
but wrong factor tables, not crashes.  This module is the machine-checked
definition of what a *well-formed* logical plan is: output columns are
derivable bottom-up, every expression binds only to in-scope columns,
join keys agree in arity and (when schemas are known) in type, and the
bag/set discipline around ``Distinct``/``UnionAll`` holds.  Findings
carry stable ``PKB201``-``PKB208`` codes; the physical (MPP) layer adds
``PKB209``-``PKB212`` in :mod:`repro.mpp.verify`.

The verifier is deliberately pure: it never binds scans, touches
clocks, or mutates the plan, so running it cannot change what a plan
computes — grounding results are bit-identical with the
``PROBKB_VERIFY_PLANS`` gate on or off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..findings import (
    ERROR,
    WARNING,
    FindingBase,
    ReportBase,
    code_entry,
    register_codes,
)
from .expr import Col, Const, Expr, resolve_column
from .plan import (
    AGG_FUNCS,
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
from .types import ExecutionError, PlanError

__all__ = [
    "LOGICAL_CODES",
    "PlanFinding",
    "PlanVerificationError",
    "VerificationReport",
    "verify_plan",
    "verify_plans_enabled",
]

#: code -> (default severity, one-line title).  Codes are append-only:
#: once published a code never changes meaning or disappears.  The
#: physical-plan codes PKB209-PKB212 live in ``repro.mpp.verify``; both
#: tables are registered in ``repro.findings`` and listed in
#: ``repro.analyze.findings.CODES``.
LOGICAL_CODES: Dict[str, Tuple[str, str]] = register_codes({
    "PKB201": (ERROR, "scan is unbound and its table is unknown to the "
                      "verifier"),
    "PKB202": (ERROR, "duplicate qualified column name in an operator's "
                      "output"),
    "PKB203": (ERROR, "expression or key references a column that is not "
                      "in scope (or is ambiguous)"),
    "PKB204": (ERROR, "join/anti-join key lists differ in arity"),
    "PKB205": (ERROR, "join key columns disagree on declared type"),
    "PKB206": (ERROR, "UnionAll children are shape-incompatible "
                      "(arity error; column-name drift warns)"),
    "PKB207": (ERROR, "Aggregate group-key/output inconsistency"),
    "PKB208": (WARNING, "bag/set discipline violation (redundant "
                        "Distinct)"),
})

#: values of ``PROBKB_VERIFY_PLANS`` that switch the runtime gate on
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def verify_plans_enabled() -> bool:
    """The runtime verify gate: is ``PROBKB_VERIFY_PLANS`` set truthy?"""
    return os.environ.get("PROBKB_VERIFY_PLANS", "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class PlanFinding(FindingBase):
    """One verifier defect at one node of a plan tree.

    ``path`` addresses the node: ``root`` is the tree root and each
    ``.N`` segment descends into the N-th child (0-based), so the right
    input of a join under the root is ``root.1``.  Several codes are
    emitted at more than one severity, so the severity is stated, never
    defaulted; the checkers' ``emit`` fills it from the registry.
    """

    code: str
    path: str
    message: str
    severity: str = ""
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.severity:
            raise ValueError(f"finding {self.code} needs a severity")
        super().__post_init__()

    def render(self) -> str:
        return f"{self.path}: {self.code} {self.severity} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "message": self.message,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class VerificationReport(ReportBase[PlanFinding]):
    """Everything one :func:`verify_plan` run found."""

    plan_name: str
    findings: Tuple[PlanFinding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.has_errors

    def render(self) -> str:
        lines = [f"verify {self.plan_name}: " + (
            "clean" if not self.findings else self.summary()
        )]
        lines.extend("  " + f.render() for f in self.findings)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan_name,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }

    def raise_if_errors(self) -> None:
        if not self.ok:
            raise PlanVerificationError(self)


class PlanVerificationError(PlanError, ExecutionError):
    """A plan failed verification with error-severity findings.

    Also an :class:`ExecutionError`: a plan the verifier rejects is a
    plan the executor would reject, so ``except ExecutionError``
    handlers behave identically with the runtime gate on or off —
    the gate only moves the failure before execution."""

    def __init__(self, report: VerificationReport) -> None:
        self.report = report
        super().__init__(report.render())


class _Scope:
    """Derived output shape of one plan node.

    ``columns`` is None when the node's shape could not be derived (a
    finding was already emitted); checks depending on it are skipped to
    avoid cascading noise.  ``types`` maps a column name to its declared
    type wherever the schema made one derivable — absent means unknown,
    and type checks only fire when both sides are known.
    """

    __slots__ = ("columns", "types")

    def __init__(
        self,
        columns: Optional[List[str]],
        types: Optional[Dict[str, str]] = None,
    ) -> None:
        self.columns = columns
        self.types = types or {}


_UNKNOWN = _Scope(None)

_CONST_TYPES = {int: "int", float: "float", str: "text", bool: "int"}


class _Checker:
    def __init__(self, tables: Optional[Mapping[str, Any]]) -> None:
        self.tables = tables or {}
        self.findings: List[PlanFinding] = []

    # -- plumbing ------------------------------------------------------------

    def emit(
        self,
        code: str,
        path: str,
        message: str,
        severity: str = "",
        **details: Any,
    ) -> None:
        self.findings.append(
            PlanFinding(
                code=code,
                path=path,
                message=message,
                severity=severity or code_entry(code)[0],
                details=details,
            )
        )

    def _schema_of(self, table_name: str) -> Optional[Any]:
        entry = self.tables.get(table_name)
        if entry is None:
            return None
        # entry may be a Table (has .schema) or a TableSchema itself
        return getattr(entry, "schema", entry)

    def _check_duplicates(self, columns: Sequence[str], path: str, op: str) -> None:
        seen: Dict[str, int] = {}
        for name in columns:
            seen[name] = seen.get(name, 0) + 1
        duplicates = sorted(name for name, count in seen.items() if count > 1)
        if duplicates:
            self.emit(
                "PKB202",
                path,
                f"{op}: duplicate output columns [{', '.join(duplicates)}]",
                operator=op,
                duplicates=duplicates,
            )

    def _resolve(
        self, name: str, scope: _Scope, path: str, op: str, role: str
    ) -> Optional[str]:
        """Resolve ``name`` to its qualified column in ``scope``; emit
        PKB203 and return None on failure."""
        if scope.columns is None:
            return None
        try:
            return scope.columns[resolve_column(name, scope.columns)]
        except PlanError as error:
            self.emit(
                "PKB203",
                path,
                f"{op}: {role} {error}",
                operator=op,
                column=name,
                scope=list(scope.columns),
            )
            return None

    def _resolve_expr(self, expr: Expr, scope: _Scope, path: str, op: str) -> None:
        for name in expr.referenced_columns():
            self._resolve(name, scope, path, op, "expression")

    # -- dispatch ------------------------------------------------------------

    def check(self, node: PlanNode, path: str) -> _Scope:
        if isinstance(node, Scan):
            return self._check_scan(node, path)
        if isinstance(node, Values):
            return self._check_values(node, path)
        if isinstance(node, Filter):
            return self._check_filter(node, path)
        if isinstance(node, Project):
            return self._check_project(node, path)
        if isinstance(node, HashJoin):
            return self._check_join(node, path, anti=False)
        if isinstance(node, AntiJoin):
            return self._check_join(node, path, anti=True)
        if isinstance(node, Distinct):
            return self._check_distinct(node, path)
        if isinstance(node, Aggregate):
            return self._check_aggregate(node, path)
        if isinstance(node, UnionAll):
            return self._check_union(node, path)
        # an unknown operator class: treat as opaque pass-through
        scopes = [self.check(child, f"{path}.{i}")
                  for i, child in enumerate(node.children)]
        return scopes[0] if scopes else _UNKNOWN

    # -- leaves --------------------------------------------------------------

    def _check_scan(self, node: Scan, path: str) -> _Scope:
        schema = self._schema_of(node.table_name)
        bound = getattr(node, "_columns", None)
        if bound is not None:
            columns = list(bound)
        elif schema is not None:
            columns = [f"{node.alias}.{c.name}" for c in schema.columns]
        else:
            known = "" if not self.tables else (
                f" (known tables: {', '.join(sorted(self.tables))})"
            )
            self.emit(
                "PKB201",
                path,
                f"Seq Scan on {node.table_name}: scan is not bound and "
                f"{node.table_name!r} is not a known table{known}",
                table=node.table_name,
                alias=node.alias,
            )
            return _UNKNOWN
        types: Dict[str, str] = {}
        if schema is not None:
            for column in schema.columns:
                types[f"{node.alias}.{column.name}"] = column.type
        self._check_duplicates(columns, path, "Seq Scan")
        return _Scope(columns, types)

    def _check_values(self, node: Values, path: str) -> _Scope:
        columns = node.output_columns
        self._check_duplicates(columns, path, "Values")
        types: Dict[str, str] = {}
        if node.rows:
            for index, name in enumerate(columns):
                value = node.rows[0][index]
                inferred = _CONST_TYPES.get(type(value))
                if inferred is not None:
                    types[name] = inferred
        return _Scope(columns, types)

    # -- unary ---------------------------------------------------------------

    def _check_filter(self, node: Filter, path: str) -> _Scope:
        scope = self.check(node.child, f"{path}.0")
        self._resolve_expr(node.predicate, scope, path, "Filter")
        return scope

    def _check_project(self, node: Project, path: str) -> _Scope:
        child = self.check(node.child, f"{path}.0")
        types: Dict[str, str] = {}
        for expr, name in node.outputs:
            self._resolve_expr(expr, child, path, "Project")
            if isinstance(expr, Col) and child.columns is not None:
                try:
                    resolved = child.columns[
                        resolve_column(expr.name, child.columns)
                    ]
                except PlanError:
                    resolved = None
                if resolved is not None and resolved in child.types:
                    types[name] = child.types[resolved]
            elif isinstance(expr, Const):
                inferred = _CONST_TYPES.get(type(expr.value))
                if inferred is not None:
                    types[name] = inferred
        columns = [name for _, name in node.outputs]
        self._check_duplicates(columns, path, "Project")
        return _Scope(columns, types)

    def _check_distinct(self, node: Distinct, path: str) -> _Scope:
        scope = self.check(node.child, f"{path}.0")
        if isinstance(node.child, (Distinct, Aggregate)):
            self.emit(
                "PKB208",
                path,
                f"Distinct over {node.child.__class__.__name__}: the input "
                "is already duplicate-free, the dedup is redundant",
                operator="Distinct",
                child=node.child.__class__.__name__,
            )
        return scope

    # -- joins ---------------------------------------------------------------

    def _check_join(self, node: PlanNode, path: str, anti: bool) -> _Scope:
        op = "Hash Anti Join" if anti else "Hash Join"
        left = self.check(node.left, f"{path}.0")
        right = self.check(node.right, f"{path}.1")
        left_keys, right_keys = node.left_keys, node.right_keys
        if len(left_keys) != len(right_keys):
            self.emit(
                "PKB204",
                path,
                f"{op}: {len(left_keys)} left keys "
                f"[{', '.join(left_keys)}] vs {len(right_keys)} right keys "
                f"[{', '.join(right_keys)}]",
                operator=op,
                left_keys=list(left_keys),
                right_keys=list(right_keys),
            )
        for lk, rk in zip(left_keys, right_keys):
            lcol = self._resolve(lk, left, path, op, "left key")
            rcol = self._resolve(rk, right, path, op, "right key")
            if lcol is not None and rcol is not None:
                ltype = left.types.get(lcol)
                rtype = right.types.get(rcol)
                if ltype is not None and rtype is not None and ltype != rtype:
                    self.emit(
                        "PKB205",
                        path,
                        f"{op}: key {lcol} is {ltype} but {rcol} is {rtype}",
                        operator=op,
                        left_key=lcol,
                        right_key=rcol,
                        left_type=ltype,
                        right_type=rtype,
                    )
        if anti:
            return left
        residual = getattr(node, "residual", None)
        if left.columns is None or right.columns is None:
            if residual is not None and left.columns is not None:
                self._resolve_expr(residual, left, path, op)
            return _UNKNOWN
        columns = list(left.columns) + list(right.columns)
        self._check_duplicates(columns, path, op)
        types = dict(left.types)
        types.update(right.types)
        combined = _Scope(columns, types)
        if residual is not None:
            self._resolve_expr(residual, combined, path, op)
        return combined

    # -- aggregate -----------------------------------------------------------

    def _check_aggregate(self, node: Aggregate, path: str) -> _Scope:
        child = self.check(node.child, f"{path}.0")
        op = "Aggregate"
        types: Dict[str, str] = {}
        for key in node.group_by:
            resolved = self._resolve(key, child, path, op, "group key")
            if resolved is not None and resolved in child.types:
                types[key] = child.types[resolved]
        names: List[str] = list(node.group_by)
        for func, input_col, name in node.aggregates:
            if func not in AGG_FUNCS:
                self.emit(
                    "PKB207",
                    path,
                    f"{op}: unknown aggregate function {func!r} "
                    f"(supported: {', '.join(sorted(AGG_FUNCS))})",
                    operator=op,
                    function=func,
                )
            resolved = None
            if input_col is not None:
                resolved = self._resolve(input_col, child, path, op, "input")
            if func in ("count", "count_distinct"):
                types[name] = "int"
            elif resolved is not None and resolved in child.types:
                types[name] = child.types[resolved]
            names.append(name)
        seen: Dict[str, int] = {}
        for name in names:
            seen[name] = seen.get(name, 0) + 1
        collisions = sorted(n for n, c in seen.items() if c > 1)
        if collisions:
            self.emit(
                "PKB207",
                path,
                f"{op}: output name collision between group keys and "
                f"aggregates [{', '.join(collisions)}]",
                operator=op,
                duplicates=collisions,
            )
        output = _Scope(names, types)
        if node.having is not None:
            # HAVING binds against the *aggregate output* (group keys and
            # aggregate names), not the child scope
            if output.columns is not None:
                for name in node.having.referenced_columns():
                    try:
                        resolve_column(name, output.columns)
                    except PlanError as error:
                        self.emit(
                            "PKB207",
                            path,
                            f"{op}: having {error} (having binds against "
                            "the aggregate output columns "
                            f"[{', '.join(output.columns)}])",
                            operator=op,
                            column=name,
                            scope=list(output.columns),
                        )
        return output

    # -- union ---------------------------------------------------------------

    def _check_union(self, node: UnionAll, path: str) -> _Scope:
        scopes = [
            self.check(child, f"{path}.{i}")
            for i, child in enumerate(node.children)
        ]
        first = scopes[0]
        if first.columns is None:
            return _UNKNOWN
        for index, scope in enumerate(scopes[1:], start=1):
            if scope.columns is None:
                continue
            if len(scope.columns) != len(first.columns):
                self.emit(
                    "PKB206",
                    path,
                    f"UnionAll: child {index} has {len(scope.columns)} "
                    f"columns [{', '.join(scope.columns)}], expected "
                    f"{len(first.columns)} [{', '.join(first.columns)}]",
                    child=index,
                    expected=list(first.columns),
                    actual=list(scope.columns),
                )
                continue
            drifted = [
                (a, b)
                for a, b in zip(first.columns, scope.columns)
                if _suffix(a) != _suffix(b)
            ]
            if drifted:
                pairs = ", ".join(f"{a} vs {b}" for a, b in drifted)
                self.emit(
                    "PKB206",
                    path,
                    f"UnionAll: child {index} column names drift from "
                    f"child 0 ({pairs}); the union keeps child 0's names",
                    severity=WARNING,
                    child=index,
                    expected=list(first.columns),
                    actual=list(scope.columns),
                )
        return first


def _suffix(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def verify_plan(
    plan: PlanNode,
    tables: Optional[Mapping[str, Any]] = None,
    name: str = "plan",
) -> VerificationReport:
    """Statically verify a logical plan tree.

    ``tables`` optionally maps a table name to its ``Table`` or
    ``TableSchema``; when given, unbound scans resolve against it and
    join keys are type-checked.  Without it the verifier still checks
    everything derivable from the plan alone (bound scans, scoping,
    arity, bag/set discipline).  The plan is never mutated.
    """
    checker = _Checker(tables)
    checker.check(plan, "root")
    return VerificationReport(plan_name=name, findings=tuple(checker.findings))
