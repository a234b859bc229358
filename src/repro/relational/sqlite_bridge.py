"""Conformance bridge to stdlib sqlite3.

Loads the contents of a :class:`~repro.relational.database.Database` into
a sqlite3 database and runs SQL text there.  Tests use this to verify
that our executor and the SQL renderer agree with a real RDBMS on the
exact queries ProbKB generates.  By default the mirror lives in memory;
given a ``path`` it persists to disk — the serving layer's sqlite
snapshot export (``repro.serve.snapshot.export_sqlite``) rides on that.
"""

from __future__ import annotations

import sqlite3
from typing import Any, List, Optional

from .database import Database
from .types import FLOAT, INT, TEXT, Row, _null_safe_key

_SQLITE_TYPES = {INT: "INTEGER", FLOAT: "REAL", TEXT: "TEXT"}


class SqliteMirror:
    """A sqlite3 copy of a Database's tables (in memory, or on disk)."""

    def __init__(
        self,
        db: Database,
        tables: Optional[List[str]] = None,
        path: Optional[str] = None,
    ) -> None:
        self.path = path
        self.conn = sqlite3.connect(path if path is not None else ":memory:")
        names = tables if tables is not None else list(db.tables)
        for name in names:
            self._load_table(db, name)

    def _load_table(self, db: Database, name: str) -> None:
        table = db.table(name)
        columns = ", ".join(
            f"{col.name} {_SQLITE_TYPES[col.type]}" for col in table.schema.columns
        )
        self.conn.execute(f"CREATE TABLE {name} ({columns})")
        placeholders = ", ".join("?" for _ in table.schema.columns)
        self.conn.executemany(
            f"INSERT INTO {name} VALUES ({placeholders})", table.rows
        )
        self.conn.commit()

    def run(self, sql: str) -> List[Row]:
        cursor = self.conn.execute(sql)
        return [tuple(row) for row in cursor.fetchall()]

    def run_sorted(self, sql: str) -> List[Row]:
        return sorted(self.run(sql), key=_null_safe_key)

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "SqliteMirror":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
