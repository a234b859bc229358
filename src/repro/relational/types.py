"""Value, row and result types shared by the relational engine.

Rows are plain Python tuples; they exist at the engine's edges (client
input, ``Values``, a query's :class:`Result`) while tables and operators
hold columns.  Column values are limited
to the small set of scalar types the ProbKB relational model needs:
integers (identifiers, dictionary-encoded symbols), floats (weights),
strings (symbolic debugging tables), and NULL (``None``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

Value = Union[int, float, str, None]
Row = Tuple[Value, ...]

#: Type tags accepted by :class:`repro.relational.schema.Column`.
INT = "int"
FLOAT = "float"
TEXT = "text"

_PYTHON_TYPES = {
    INT: (int,),
    # bool is excluded from int on purpose; weights may be ints too.
    FLOAT: (int, float),
    TEXT: (str,),
}

VALID_TYPES = frozenset(_PYTHON_TYPES)
_NONE_TYPE = type(None)


def check_value(value: Value, type_tag: str) -> bool:
    """Return True if ``value`` is acceptable for a column of ``type_tag``.

    NULL (``None``) is always acceptable; nullability constraints are the
    caller's concern.
    """
    if value is None:
        return True
    if isinstance(value, bool):
        return False
    return isinstance(value, _PYTHON_TYPES[type_tag])


def first_invalid(values: Sequence[Value], type_tag: str) -> Optional[int]:
    """Index of the first value :func:`check_value` rejects, or None.

    Decided once per distinct Python type in the column, never by a
    numpy dtype: ``np.asarray([1, True])`` is a clean ``int64`` array,
    and ``bool`` must stay out of ``int`` columns.
    """
    allowed = _PYTHON_TYPES[type_tag]
    if all(
        kind is _NONE_TYPE
        or (issubclass(kind, allowed) and not issubclass(kind, bool))
        for kind in set(map(type, values))
    ):
        return None
    return next(
        index
        for index, value in enumerate(values)
        if not check_value(value, type_tag)
    )


def sql_literal(value: Value) -> str:
    """Render a value as a SQL literal (PostgreSQL/SQLite compatible)."""
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


class Result:
    """A materialized query result."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: List[str], rows: List[Row]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def sorted_rows(self) -> List[Row]:
        """Rows in a canonical order (NULLs first), for comparisons."""
        return sorted(self.rows, key=_null_safe_key)

    def column(self, name: str) -> List[Value]:
        from .expr import resolve_column  # expr imports this module

        pos = resolve_column(name, self.columns)
        return [row[pos] for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Result({self.columns}, {len(self.rows)} rows)"


def _null_safe_key(row: Row) -> Tuple:
    return tuple((value is not None, value) for value in row)


class RelationalError(Exception):
    """Base class for all errors raised by the relational engine."""


class SchemaError(RelationalError):
    """Schema definition or column resolution failure."""


class ExecutionError(RelationalError):
    """Runtime failure while executing a plan."""


class PlanError(RelationalError):
    """Structurally invalid logical plan."""


def ensure(condition: bool, exc: type, message: str) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc(message)
