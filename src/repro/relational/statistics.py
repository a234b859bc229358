"""Per-relation statistics for static plan analysis (the ANALYZE stand-in).

A real optimizer plans from catalog statistics gathered by ``ANALYZE``:
row counts, per-column distinct counts, and most-common-value skew.  This
module provides the same three ingredients for the static plan estimator
(:mod:`repro.mpp.static_planner`):

* :class:`ColumnStats` — distinct count, NULL fraction, and the fraction
  of non-NULL rows held by the most common value (skew).
* :class:`TableStats` — row count plus per-column stats.
* :class:`StatisticsCatalog` — named tables with their stats and their
  MPP distribution (:class:`TableDistribution`), the static analogue of
  Greenplum's ``gp_distribution_policy`` catalog.

Statistics can be collected from raw rows (:func:`table_stats`) or
synthesized directly from a knowledge base before any table exists
(:mod:`repro.analyze.plans`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .types import ExecutionError, Row, Value, ensure


@dataclass(frozen=True)
class ColumnStats:
    """ANALYZE-style statistics of one column."""

    #: number of distinct non-NULL values
    distinct: int
    #: fraction of rows that are NULL
    null_fraction: float = 0.0
    #: share of non-NULL rows held by the most common value (1/distinct
    #: for a uniform column; near 1.0 for a heavily skewed one)
    mcv_fraction: float = 0.0


@dataclass(frozen=True)
class TableStats:
    """Row count and per-column statistics of one relation."""

    rows: int
    column_names: Tuple[str, ...]
    columns: Mapping[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        """Stats for a column, defaulting to the pessimistic assumption
        that every row is distinct when the column was never analyzed."""
        found = self.columns.get(name)
        if found is not None:
            return found
        return ColumnStats(
            distinct=self.rows,
            null_fraction=0.0,
            mcv_fraction=1.0 / self.rows if self.rows else 0.0,
        )


@dataclass(frozen=True)
class TableDistribution:
    """How a stored table is spread across MPP segments."""

    kind: str  # "hash" | "replicated" | "random"
    columns: Optional[Tuple[str, ...]] = None

    @staticmethod
    def hash_on(columns: Iterable[str]) -> "TableDistribution":
        return TableDistribution("hash", tuple(columns))

    @staticmethod
    def replicated() -> "TableDistribution":
        return TableDistribution("replicated")

    @staticmethod
    def random() -> "TableDistribution":
        return TableDistribution("random")


#: Distribution of every single-node table (one segment holds everything).
SINGLE_NODE_DIST = TableDistribution.random()


def column_stats(values: Sequence[Value]) -> ColumnStats:
    """Compute :class:`ColumnStats` over one column's values."""
    total = len(values)
    if total == 0:
        return ColumnStats(distinct=0)
    non_null = [value for value in values if value is not None]
    if not non_null:
        return ColumnStats(distinct=0, null_fraction=1.0)
    counts = Counter(non_null)
    most_common = counts.most_common(1)[0][1]
    return ColumnStats(
        distinct=len(counts),
        null_fraction=(total - len(non_null)) / total,
        mcv_fraction=most_common / len(non_null),
    )


def table_stats(column_names: Sequence[str], rows: Sequence[Row]) -> TableStats:
    """Compute full-table statistics from raw rows (an exact ANALYZE)."""
    names = tuple(column_names)
    per_column: Dict[str, ColumnStats] = {}
    for pos, name in enumerate(names):
        per_column[name] = column_stats([row[pos] for row in rows])
    return TableStats(rows=len(rows), column_names=names, columns=per_column)


class StatisticsCatalog:
    """Named table statistics plus each table's MPP distribution."""

    def __init__(self, num_segments: int = 1) -> None:
        ensure(num_segments >= 1, ExecutionError, "need at least one segment")
        self.num_segments = num_segments
        self._tables: Dict[str, TableStats] = {}
        self._distributions: Dict[str, TableDistribution] = {}

    def add(
        self,
        name: str,
        stats: TableStats,
        distribution: TableDistribution = SINGLE_NODE_DIST,
    ) -> None:
        self._tables[name] = stats
        self._distributions[name] = distribution

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def stats(self, name: str) -> TableStats:
        try:
            return self._tables[name]
        except KeyError:
            raise ExecutionError(f"no statistics for table {name!r}") from None

    def distribution(self, name: str) -> TableDistribution:
        try:
            return self._distributions[name]
        except KeyError:
            raise ExecutionError(f"no distribution for table {name!r}") from None
