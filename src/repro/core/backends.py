"""Execution backends: PostgreSQL-like single node vs Greenplum-like MPP.

The grounding algorithm issues the same logical plans regardless of the
backend; backends differ in where tables live, whether redistributed
materialized views of TΠ exist (Section 4.4), and how time is modelled.

Three configurations reproduce the paper's three systems:

* ``SingleNodeBackend``                      — "ProbKB"   (PostgreSQL)
* ``MPPBackend(use_matviews=False)``         — "ProbKB-pn" (Greenplum, naive)
* ``MPPBackend(use_matviews=True)``          — "ProbKB-p"  (Greenplum, tuned)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..mpp import HashDistribution, MPPDatabase, ReplicatedDistribution
from ..relational import Database, PlanNode, Result, Scan, TableSchema
from ..relational.types import Row

#: Redistributed materialized views of TΠ (Section 4.4): name -> keys.
#: "It turns out that ... the only replicates of TΠ we need to create
#: are distributed by (R,C1,C2), (R,C1,x,C2), (R,C1,C2,y), (R,C1,x,C2,y)."
TPI_VIEWS: Dict[str, Tuple[str, ...]] = {
    "T0": ("R", "C1", "C2"),
    "Tx": ("R", "C1", "x", "C2"),
    "Ty": ("R", "C1", "C2", "y"),
    "Txy": ("R", "C1", "x", "C2", "y"),
}


class Backend:
    """Common interface over the two engines."""

    name: str
    is_mpp: bool = False

    def create_table(
        self, table_schema: TableSchema, dist_keys: Optional[Sequence[str]] = None
    ) -> None:
        raise NotImplementedError

    def bulkload(self, table_name: str, rows: Sequence[Row]) -> int:
        raise NotImplementedError

    def query(self, plan: PlanNode) -> Result:
        raise NotImplementedError

    def insert_rows(self, table_name: str, rows: Sequence[Row]) -> int:
        raise NotImplementedError

    def insert_from(self, table_name: str, plan: PlanNode) -> int:
        """INSERT ... SELECT, staying inside the engine (no gather)."""
        raise NotImplementedError

    def insert_from_with_ids(
        self, table_name: str, plan: PlanNode, next_id: int, pad_nulls: int = 0
    ) -> Tuple[int, int]:
        """INSERT ... SELECT with a leading sequence column."""
        raise NotImplementedError

    def truncate(self, table_name: str) -> None:
        raise NotImplementedError

    def delete_in(
        self, table_name: str, columns: Sequence[str], key_plan: PlanNode
    ) -> int:
        raise NotImplementedError

    def table_size(self, table_name: str) -> int:
        raise NotImplementedError

    def has_table(self, table_name: str) -> bool:
        raise NotImplementedError

    def project(self, table_name: str, column_names: Sequence[str]) -> List[Row]:
        """Project a stored table onto named columns (schema-resolved).

        Callers that need specific columns of a physical table use this
        instead of slicing raw rows by position, so a schema change
        cannot silently misalign them.
        """
        raise NotImplementedError

    @property
    def elapsed_seconds(self) -> float:
        raise NotImplementedError

    def executor_info(self) -> Dict[str, object]:
        """How this backend executes work (reported by ``GET /stats``)."""
        return {
            "mode": "single-node",
            "segments": 1,
            "workers": 0,
            "degraded": False,
            "engine": "columnar",
        }

    def close(self) -> None:
        """Release executor resources (worker pools); no-op by default."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def tpi_scan(self, alias: str, entity_join_columns: Sequence[str]) -> Scan:
        """A scan of the facts table suitable for joining on
        (R, C1, C2) plus the given entity columns ('x' and/or 'y').

        Single-node backends (and MPP without views) scan TΠ itself; a
        tuned MPP backend picks the redistributed materialized view whose
        distribution key matches so the join is collocated.
        """
        return Scan("TP", alias)

    def after_facts_changed(self) -> None:
        """Hook run after TΠ changes (Algorithm 1's redistribute step)."""


class SingleNodeBackend(Backend):
    """ProbKB on a single-node RDBMS (the PostgreSQL role)."""

    def __init__(
        self,
        name: str = "probkb",
        verify_plans: Optional[bool] = None,
    ) -> None:
        self.name = name
        self.db = Database(name, verify_plans=verify_plans)

    def create_table(
        self, table_schema: TableSchema, dist_keys: Optional[Sequence[str]] = None
    ) -> None:
        self.db.create_table(table_schema, replace=True)

    def bulkload(self, table_name: str, rows: Sequence[Row]) -> int:
        return self.db.bulkload(table_name, rows)

    def query(self, plan: PlanNode) -> Result:
        return self.db.query(plan)

    def insert_rows(self, table_name: str, rows: Sequence[Row]) -> int:
        return self.db.insert_rows(table_name, rows)

    def insert_from(self, table_name: str, plan: PlanNode) -> int:
        return self.db.insert_from(table_name, plan)

    def insert_from_with_ids(
        self, table_name: str, plan: PlanNode, next_id: int, pad_nulls: int = 0
    ) -> Tuple[int, int]:
        return self.db.insert_from_with_ids(table_name, plan, next_id, pad_nulls)

    def truncate(self, table_name: str) -> None:
        self.db.truncate(table_name)

    def delete_in(
        self, table_name: str, columns: Sequence[str], key_plan: PlanNode
    ) -> int:
        return self.db.delete_in(table_name, columns, key_plan)

    def table_size(self, table_name: str) -> int:
        return len(self.db.table(table_name))

    def has_table(self, table_name: str) -> bool:
        return self.db.has_table(table_name)

    def project(self, table_name: str, column_names: Sequence[str]) -> List[Row]:
        return self.db.table(table_name).project(column_names)

    @property
    def elapsed_seconds(self) -> float:
        return self.db.elapsed_seconds


class MPPBackend(Backend):
    """ProbKB on a shared-nothing MPP cluster (the Greenplum role)."""

    is_mpp = True

    def __init__(
        self,
        nseg: int = 8,
        use_matviews: bool = True,
        name: str = "probkb-p",
        num_workers: int = 0,
        worker_timeout: float = 60.0,
        verify_plans: Optional[bool] = None,
    ) -> None:
        self.name = name
        self.nseg = nseg
        self.use_matviews = use_matviews
        self.num_workers = num_workers
        self.db = MPPDatabase(
            nseg=nseg,
            name=name,
            num_workers=num_workers,
            worker_timeout=worker_timeout,
            verify_plans=verify_plans,
        )
        self._views_created = False

    # -- table management ------------------------------------------------------

    def create_table(
        self, table_schema: TableSchema, dist_keys: Optional[Sequence[str]] = None
    ) -> None:
        policy = HashDistribution(dist_keys) if dist_keys else None
        self.db.create_table(table_schema, policy, replace=True)

    def create_replicated_table(self, table_schema: TableSchema) -> None:
        """MLN tables are small: replicate them to every segment so rule
        application never ships them (a standard MPP dimension-table
        optimization)."""
        self.db.create_table(table_schema, ReplicatedDistribution(), replace=True)

    def bulkload(self, table_name: str, rows: Sequence[Row]) -> int:
        return self.db.bulkload(table_name, rows)

    def query(self, plan: PlanNode) -> Result:
        return self.db.query(plan)

    def insert_rows(self, table_name: str, rows: Sequence[Row]) -> int:
        return self.db.insert_rows(table_name, rows)

    def insert_from(self, table_name: str, plan: PlanNode) -> int:
        return self.db.insert_from(table_name, plan)

    def insert_from_with_ids(
        self, table_name: str, plan: PlanNode, next_id: int, pad_nulls: int = 0
    ) -> Tuple[int, int]:
        return self.db.insert_from_with_ids(table_name, plan, next_id, pad_nulls)

    def truncate(self, table_name: str) -> None:
        self.db.truncate(table_name)

    def delete_in(
        self, table_name: str, columns: Sequence[str], key_plan: PlanNode
    ) -> int:
        return self.db.delete_in(table_name, columns, key_plan)

    def table_size(self, table_name: str) -> int:
        return len(self.db.table(table_name))

    def has_table(self, table_name: str) -> bool:
        return self.db.has_table(table_name)

    def project(self, table_name: str, column_names: Sequence[str]) -> List[Row]:
        table = self.db.table(table_name)
        positions = table.schema.positions(column_names)
        return [
            tuple(row[pos] for pos in positions) for row in table.all_rows()
        ]

    @property
    def elapsed_seconds(self) -> float:
        return self.db.elapsed_seconds

    def executor_info(self) -> Dict[str, object]:
        return self.db.executor_info()

    def close(self) -> None:
        self.db.close()

    # -- redistributed materialized views ------------------------------------------

    def create_tpi_views(self) -> None:
        """Create the four redistributed materialized views of TΠ and
        register them as mirrors so TΠ DML keeps them fresh
        incrementally (Algorithm 1's redistribute step, amortized)."""
        if not self.use_matviews:
            return
        for view_name, keys in TPI_VIEWS.items():
            self.db.create_redistributed_matview(view_name, "TP", keys)
            self.db.add_mirror("TP", view_name)
        self._views_created = True

    def tpi_scan(self, alias: str, entity_join_columns: Sequence[str]) -> Scan:
        if not (self.use_matviews and self._views_created):
            return Scan("TP", alias)
        wants = frozenset(entity_join_columns)
        if wants == frozenset({"x"}):
            return Scan("Tx", alias)
        if wants == frozenset({"y"}):
            return Scan("Ty", alias)
        if wants == frozenset({"x", "y"}):
            return Scan("Txy", alias)
        return Scan("T0", alias)

    def after_facts_changed(self) -> None:
        """Algorithm 1 Line 7: ``redistribute(TΠ)``.

        A no-op here because the views are maintained incrementally as
        mirrors of TΠ's DML (cheaper than the full refresh and
        equivalent in content)."""

    def explain_last(self) -> str:
        return self.db.explain_last()
