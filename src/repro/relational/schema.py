"""Table schemas for the relational engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .columnar import ColumnBatch, first_invalid_row
from .types import VALID_TYPES, SchemaError, ensure


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: str

    def __post_init__(self) -> None:
        ensure(bool(self.name), SchemaError, "column name must be non-empty")
        ensure(
            self.type in VALID_TYPES,
            SchemaError,
            f"unknown column type {self.type!r} for column {self.name!r}",
        )


class TableSchema:
    """An ordered collection of columns with optional uniqueness key.

    ``unique_key`` names the columns whose combination must be unique in the
    table; inserts silently drop rows that duplicate an existing key (set
    semantics), mirroring how ProbKB's `TΠ` deduplicates inferred facts.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        unique_key: Optional[Sequence[str]] = None,
    ) -> None:
        ensure(bool(name), SchemaError, "table name must be non-empty")
        ensure(len(columns) > 0, SchemaError, f"table {name!r} has no columns")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index: Dict[str, int] = {}
        for pos, col in enumerate(self.columns):
            ensure(
                col.name not in self._index,
                SchemaError,
                f"duplicate column {col.name!r} in table {name!r}",
            )
            self._index[col.name] = pos
        self.unique_key: Optional[Tuple[str, ...]] = None
        if unique_key is not None:
            key = tuple(unique_key)
            for col_name in key:
                ensure(
                    col_name in self._index,
                    SchemaError,
                    f"unique key column {col_name!r} not in table {name!r}",
                )
            self.unique_key = key

    # -- column access -------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def position(self, column_name: str) -> int:
        """Return the 0-based position of ``column_name``."""
        try:
            return self._index[column_name]
        except KeyError:
            raise SchemaError(
                f"no column {column_name!r} in table {self.name!r} "
                f"(has {self.column_names})"
            ) from None

    def positions(self, column_names: Iterable[str]) -> Tuple[int, ...]:
        return tuple(self.position(name) for name in column_names)

    def __len__(self) -> int:
        return len(self.columns)

    # -- validation ----------------------------------------------------

    def check_arity(self, arity: int) -> None:
        if arity != len(self.columns):
            raise SchemaError(
                f"row arity {arity} != schema arity {len(self.columns)} "
                f"for table {self.name!r}"
            )

    def validate_batch(self, batch: ColumnBatch) -> None:
        """Raise :class:`SchemaError` if ``batch`` does not fit this
        schema, naming the offending value that comes first in row-major
        order.  Column-major: a dtype test per typed column, one pass
        over a list column, no row is built."""
        self.check_arity(len(batch.cols))
        first: Optional[Tuple[int, int]] = None  # (row, column position)
        for pos, (values, col) in enumerate(zip(batch.cols, self.columns)):
            row = first_invalid_row(values, col.type)
            if row is not None and (first is None or row < first[0]):
                first = (row, pos)
        if first is not None:
            row, pos = first
            col = self.columns[pos]
            raise SchemaError(
                f"value {batch.cols[pos][row]!r} invalid for column "
                f"{self.name}.{col.name} of type {col.type}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.type}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"


def schema(name: str, *cols: str, unique_key: Optional[Sequence[str]] = None) -> TableSchema:
    """Shorthand constructor: ``schema('t', 'a:int', 'b:text')``."""
    columns = []
    for spec in cols:
        col_name, _, col_type = spec.partition(":")
        ensure(bool(col_type), SchemaError, f"column spec {spec!r} missing type")
        columns.append(Column(col_name, col_type))
    return TableSchema(name, columns, unique_key=unique_key)
