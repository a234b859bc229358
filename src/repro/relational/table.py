"""In-memory, column-resident table storage with optional unique-key
deduplication.

A :class:`Table` stores one :class:`~.columnar.ColumnBatch` — the same
representation the operators work on — so a statement's result reaches
storage, and the next scan reads it back, without a row being built.
Rows exist only for readers outside the engine (:attr:`Table.rows`).

When the schema declares a ``unique_key``, inserts use set semantics on
that key: a row whose key already exists is dropped.  This is how
ProbKB's fact table avoids re-deriving known facts across grounding
iterations.  The stored key columns are the key set (membership is an
anti-join against them), so a delete leaves nothing else to rebuild.

The stored batch carries its own key indexes
(:func:`~.columnar.key_index`): built on the first probe of a column
list, merged on an append, gone with the batch a delete or truncate
replaces.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .columnar import (
    ColumnBatch, anti_join_indices, constant_column, fresh_key_indices, int_range, settled,
)
from .schema import TableSchema
from .types import ExecutionError, Row, ensure


def batch_of_rows(table_schema: TableSchema, rows: Iterable[Row]) -> ColumnBatch:
    """Client rows as a batch under the schema's columns.  A ragged row
    raises the arity :class:`SchemaError` here, before the transpose
    could silently truncate it."""
    staged = [tuple(row) for row in rows]
    for arity in set(map(len, staged)):
        table_schema.check_arity(arity)
    return ColumnBatch.from_rows(table_schema.column_names, staged)


def batch_of_result(
    table_schema: TableSchema,
    result: ColumnBatch,
    next_id: Optional[int] = None,
    pad_nulls: int = 0,
) -> ColumnBatch:
    """An ``INSERT ... SELECT`` result shaped for its target: a leading
    sequence column counting from ``next_id`` (if given), the result's
    columns, then ``pad_nulls`` NULL columns."""
    cols = list(result.cols)
    if next_id is not None:
        cols.insert(0, int_range(next_id, next_id + result.nrows))
    cols += [constant_column(None, result.nrows)] * pad_nulls
    ensure(
        len(cols) == len(table_schema),
        ExecutionError,
        f"insert arity mismatch into {table_schema.name!r}: "
        f"{len(cols)} != {len(table_schema)}",
    )
    return ColumnBatch(table_schema.column_names, cols, result.nrows)


class Table:
    """An in-memory relation: a schema and one column batch (whose key
    columns are the set of unique keys stored so far)."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._store(ColumnBatch.from_rows(schema.column_names, ()))
        self._key_positions: Optional[Tuple[int, ...]] = None
        if schema.unique_key is not None:
            self._key_positions = schema.positions(schema.unique_key)

    # -- basic properties ------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._stored.nrows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    @property
    def rows(self) -> List[Row]:
        """The stored rows as tuples, built on each access — for readers
        outside the engine (the reference executor, sqlite, tests)."""
        return self._stored.to_rows()

    def column_batch(self) -> ColumnBatch:
        """The stored batch.  It is immutable: a mutation replaces it,
        so scans share it instead of copying."""
        return self._stored

    def project(self, column_names: Sequence[str]) -> List[Row]:
        return list(self._stored.tuples(self.schema.positions(column_names)))

    # -- mutation ----------------------------------------------------------

    def insert(self, rows: Iterable[Row], validate: bool = True) -> int:
        """Insert client rows; see :meth:`insert_batch`."""
        return self.insert_batch(batch_of_rows(self.schema, rows), validate)

    def insert_batch(self, batch: ColumnBatch, validate: bool = True) -> int:
        """Append a batch; returns the number of rows actually stored.

        With a unique key, duplicate-keyed rows are dropped (first writer
        wins), including duplicates within ``batch`` itself.

        The insert is atomic under validation failure: the whole batch
        is validated before anything is stored, so a bad value anywhere
        in it leaves the table untouched.
        """
        if validate:
            self.schema.validate_batch(batch)
        if self._key_positions is not None:
            fresh = fresh_key_indices(batch, self._stored, self._key_positions)
            if len(fresh) < batch.nrows:
                batch = batch.gather(fresh)
        if batch.nrows:
            old = self._stored
            indexes = {
                positions: merged
                for positions, index in old.indexes.items()
                if index is not None
                and (merged := index.merged(batch, positions, old.nrows)) is not None
            }
            self._store(ColumnBatch.concat(self.schema.column_names, [old, batch]), indexes)
        return batch.nrows

    def delete_in(
        self, column_names: Sequence[str], keys: Union[ColumnBatch, Iterable[Row]]
    ) -> int:
        """Delete rows whose projection on ``column_names`` is in ``keys``
        (a batch of key columns, or client key rows); returns the number
        removed.

        This implements ``DELETE FROM t WHERE (c1, ..., cn) IN (...)`` —
        the shape of ProbKB's constraint-application Query 3.
        """
        if not isinstance(keys, ColumnBatch):
            keys = ColumnBatch.from_rows(column_names, list(keys))
        positions = self.schema.positions(column_names)
        kept = anti_join_indices(self._stored, keys, positions, range(len(positions)))
        removed = self._stored.nrows - len(kept)
        if removed:
            self._store(self._stored.gather(kept))
        return removed

    def truncate(self) -> None:
        self._store(ColumnBatch.from_rows(self.schema.column_names, ()))

    def _store(self, batch: ColumnBatch, indexes: Optional[dict] = None) -> None:
        """Replace the stored batch by ``batch``'s columns, gathered (a
        table never pins the base of a deferred column), and give it its
        key indexes — none, or an append's merged ones."""
        self._stored = ColumnBatch(batch.columns, map(settled, batch.cols), batch.nrows)
        self._stored.indexes = {} if indexes is None else indexes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name}, {len(self)} rows)"
