"""A from-scratch single-node relational engine (the PostgreSQL stand-in).

Public surface::

    from repro.relational import (
        Database, TableSchema, Column, schema,
        Scan, Filter, Project, HashJoin, Aggregate, Distinct, UnionAll,
        col, const, eq, eq_const, conj, to_sql, SqliteMirror,
    )
"""

from .columnar import ColumnBatch
from .columnar_exec import ColumnarExecutor
from .cost import CostClock
from .database import Database
from .expr import (
    And,
    Col,
    Compare,
    Const,
    Expr,
    IsNull,
    Not,
    Or,
    col,
    conj,
    const,
    eq,
    eq_const,
)
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
from .schema import Column, TableSchema, schema
from .sqlite_bridge import SqliteMirror
from .sqltext import to_sql
from .table import Table
from .types import (
    FLOAT,
    INT,
    TEXT,
    ExecutionError,
    PlanError,
    RelationalError,
    Result,
    Row,
    SchemaError,
    Value,
)

__all__ = [
    "And",
    "Aggregate",
    "AntiJoin",
    "Col",
    "Column",
    "ColumnBatch",
    "ColumnarExecutor",
    "Compare",
    "Const",
    "CostClock",
    "Database",
    "Distinct",
    "ExecutionError",
    "Expr",
    "FLOAT",
    "Filter",
    "HashJoin",
    "INT",
    "IsNull",
    "Not",
    "Or",
    "PlanError",
    "PlanNode",
    "Project",
    "RelationalError",
    "Result",
    "Row",
    "Scan",
    "SchemaError",
    "SqliteMirror",
    "TEXT",
    "Table",
    "TableSchema",
    "UnionAll",
    "Value",
    "Values",
    "col",
    "conj",
    "const",
    "eq",
    "eq_const",
    "schema",
    "to_sql",
]
