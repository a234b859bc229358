"""Execution backends: PostgreSQL-like single node vs Greenplum-like MPP.

The grounding algorithm issues the same logical plans regardless of the
engine, so :class:`Backend` is one concrete statement surface over
either database (``Database`` and ``MPPDatabase`` share the statement
methods' names and signatures).  What differs is Section 4.4's physical
design — where tables live and whether redistributed materialized views
of TΠ exist — and only :class:`MPPBackend` knows about that.

Three configurations reproduce the paper's three systems:

* ``SingleNodeBackend``                      — "ProbKB"   (PostgreSQL)
* ``MPPBackend(use_matviews=False)``         — "ProbKB-pn" (Greenplum, naive)
* ``MPPBackend(use_matviews=True)``          — "ProbKB-p"  (Greenplum, tuned)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..mpp import (
    DistributionPolicy,
    HashDistribution,
    MPPDatabase,
    ReplicatedDistribution,
)
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

_VIEW_BY_ENTITY_COLUMNS = {
    frozenset({"x"}): "Tx",
    frozenset({"y"}): "Ty",
    frozenset({"x", "y"}): "Txy",
}


def tpi_view(entity_join_columns: Sequence[str]) -> str:
    """The view of TΠ whose distribution key is (R, C1, C2) plus exactly
    the given entity columns ('x' and/or 'y'), so a join on them is
    collocated — the one place this choice is made, for the executing
    backend and the static analyzer alike."""
    return _VIEW_BY_ENTITY_COLUMNS.get(frozenset(entity_join_columns), "T0")


class Backend:
    """The one statement surface over either database."""

    is_mpp = False
    #: Section 4.4's physical design: segments, and whether the
    #: redistributed views of TΠ exist (what the analyzer plans for)
    nseg = 1
    use_matviews = False

    def __init__(self, name: str, db: Union[Database, MPPDatabase]) -> None:
        self.name = name
        self.db = db

    def create_table(
        self,
        table_schema: TableSchema,
        dist_keys: Optional[Sequence[str]] = None,
        replicated: bool = False,
    ) -> None:
        """(Re)create a table.  ``dist_keys`` / ``replicated`` place it
        on a cluster; a single node has nowhere to place it."""
        self.db.create_table(table_schema, replace=True)

    def bulkload(self, table_name: str, rows: Sequence[Row]) -> int:
        return self.db.bulkload(table_name, rows)

    def query(self, plan: PlanNode) -> Result:
        return self.db.query(plan)

    def insert_rows(self, table_name: str, rows: Sequence[Row]) -> int:
        return self.db.insert_rows(table_name, rows)

    def insert_from(self, table_name: str, plan: PlanNode) -> int:
        """INSERT ... SELECT, staying inside the engine (no gather)."""
        return self.db.insert_from(table_name, plan)

    def insert_from_with_ids(
        self, table_name: str, plan: PlanNode, next_id: int, pad_nulls: int = 0
    ) -> Tuple[int, int]:
        """INSERT ... SELECT with a leading sequence column."""
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
        """Project a stored table onto named columns (schema-resolved).

        Callers that need specific columns of a physical table use this
        instead of slicing raw rows by position, so a schema change
        cannot silently misalign them.
        """
        return self.db.table(table_name).project(column_names)

    @property
    def elapsed_seconds(self) -> float:
        return self.db.elapsed_seconds

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

    def create_tpi_views(self) -> None:
        """Create the redistributed views of TΠ, where the physical
        design has them (Section 4.4); nothing to do on a single node."""

    def tpi_scan(self, alias: str, entity_join_columns: Sequence[str]) -> Scan:
        """A scan of the facts table suitable for joining on
        (R, C1, C2) plus the given entity columns ('x' and/or 'y').

        Single-node backends (and MPP without views) scan TΠ itself; a
        tuned MPP backend picks the redistributed materialized view whose
        distribution key matches so the join is collocated.
        """
        return Scan("TP", alias)

    def after_facts_changed(self) -> None:
        """Hook run after TΠ changes — Algorithm 1 Line 7,
        ``redistribute(TΠ)``.  A no-op on every backend: a single node
        has nothing to redistribute, and the MPP views are maintained
        incrementally as mirrors of TΠ's DML (cheaper than the full
        refresh and equivalent in content)."""


class SingleNodeBackend(Backend):
    """ProbKB on a single-node RDBMS (the PostgreSQL role)."""

    def __init__(self, name: str = "probkb") -> None:
        super().__init__(name, Database(name))


class MPPBackend(Backend):
    """ProbKB on a shared-nothing MPP cluster (the Greenplum role):
    the statement surface plus Section 4.4's physical design."""

    is_mpp = True
    db: MPPDatabase

    def __init__(
        self,
        nseg: int = 8,
        use_matviews: bool = True,
        name: str = "probkb-p",
        num_workers: int = 0,
        worker_timeout: float = 60.0,
    ) -> None:
        super().__init__(
            name,
            MPPDatabase(
                nseg=nseg,
                name=name,
                num_workers=num_workers,
                worker_timeout=worker_timeout,
            ),
        )
        self.nseg = nseg
        self.use_matviews = use_matviews
        self.num_workers = num_workers

    def create_table(
        self,
        table_schema: TableSchema,
        dist_keys: Optional[Sequence[str]] = None,
        replicated: bool = False,
    ) -> None:
        """``replicated`` copies a small table (the MLN and constraint
        tables) to every segment so rule application never ships it — a
        standard MPP dimension-table optimization; otherwise rows are
        hashed on ``dist_keys`` (spread randomly when there are none)."""
        policy: Optional[DistributionPolicy] = None
        if replicated:
            policy = ReplicatedDistribution()
        elif dist_keys:
            policy = HashDistribution(dist_keys)
        self.db.create_table(table_schema, policy, replace=True)

    def executor_info(self) -> Dict[str, object]:
        return self.db.executor_info()

    def close(self) -> None:
        self.db.close()

    def explain_last(self) -> str:
        return self.db.explain_last()

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

    def tpi_scan(self, alias: str, entity_join_columns: Sequence[str]) -> Scan:
        """The matching view when the design has them (the load creates
        them before any grounding query is compiled), else TΠ."""
        if not self.use_matviews:
            return Scan("TP", alias)
        return Scan(tpi_view(entity_join_columns), alias)
