"""The shared-nothing MPP database simulator (the Greenplum stand-in).

An :class:`MPPDatabase` holds hash/replicated/randomly distributed tables
across N segments, executes the same logical plans as the single-node
engine, and inserts *motion* operators (redistribute/broadcast/gather)
whenever a join, aggregate, or distinct is not collocated.  Motion rows
are charged shipping costs on the receiving segments; the simulated
elapsed time of a statement is the per-statement overhead plus the
*maximum* per-segment work — i.e. ideal parallel execution, which is what
the paper's Greenplum numbers approximate.

Motion decisions are made adaptively from actual intermediate sizes,
standing in for Greenplum's statistics-driven planner.  Every executed
statement records its physical plan (:mod:`repro.mpp.plannodes`) for
EXPLAIN ANALYZE output reproducing the paper's Figure 4.

Execution modes
---------------

The planner (:class:`_MPPExecutor`) decides motions and records the
physical plan; the per-segment work is one command per operator, built
by :class:`SegmentOps` and executed by the segment interpreter of
:mod:`repro.mpp.segments`.  Serial and pooled execution are that one
interpreter — what differs is where it runs and the exchange its
motions use:

* ``num_workers=0`` (default): one interpreter in the master process
  owns every segment, reads the tables' shards in place and exchanges
  motion pieces in memory — deterministic, dependency-free, and what
  tier-1 tests exercise.
* ``num_workers>0``: each process of a persistent pool
  (:mod:`repro.mpp.workers`) is an interpreter over its share of the
  segments, commands are dispatched to all of them in lockstep, and
  motions travel worker-to-worker over ``multiprocessing`` queues.

Either way the rows, their shard placement and the cost clocks are
bit-identical.

The master's table shards stay authoritative in both modes: DML is
applied on the master and mirrored into the workers, while queries run
in the workers and only result rows travel back.  If the pool dies
mid-statement the database *degrades* — it restores the clocks the
aborted attempt charged, re-runs the statement on the in-process
interpreter over its own intact shards and stays serial from then on.
"""

from __future__ import annotations

import itertools
import warnings
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from ..relational.cost import CostClock
from ..relational.executor import Result
from ..relational.expr import Expr, resolve_column
from ..relational.operators import AggregateSpec
from ..relational.plan import (
    Aggregate,
    AntiJoin,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    UnionAll,
    Values,
    scans_of,
    walk,
)
from ..relational.schema import TableSchema
from ..relational.table import Table
from ..relational.types import ExecutionError, Row, ensure
from ..relational.verify import verify_plan, verify_plans_enabled
from .distribution import (
    DistributionPolicy,
    HashDistribution,
    RandomDistribution,
    ReplicatedDistribution,
    partition_rows,
)
from .plannodes import DistDesc, PhysicalNode
from .segments import LocalExchange, SegmentInterpreter
from .static_planner import (
    FALLBACK_BROADCAST_LEFT,
    FALLBACK_BROADCAST_RIGHT,
    StaticPlan,
    StaticPlanner,
    choose_fallback_motion,
    collect_mpp_statistics,
    join_detail,
    project_dist,
    qualified_set,
    subset_perm,
)
from .workers import WorkerCrashError, WorkerPool

_T = TypeVar("_T")

#: Supported planner modes: "adaptive" decides motions from actual
#: intermediate sizes; "static" decides them from catalog statistics
#: before execution (rows are identical either way — only the cost-based
#: broadcast-vs-redistribute fallback is data-dependent).
PLAN_MODES = ("adaptive", "static")


class MPPTable:
    """A table partitioned (or replicated) across segments."""

    def __init__(
        self,
        table_schema: TableSchema,
        policy: DistributionPolicy,
        nseg: int,
    ) -> None:
        self.schema = table_schema
        self.policy = policy
        self.parts: List[Table] = [Table(table_schema) for _ in range(nseg)]
        if policy.key_columns is not None:
            self.key_positions = table_schema.positions(policy.key_columns)
            if table_schema.unique_key is not None:
                ensure(
                    set(policy.key_columns) <= set(table_schema.unique_key),
                    ExecutionError,
                    f"distribution key of {table_schema.name!r} must be a "
                    "subset of its unique key for per-segment dedup to be "
                    "globally correct",
                )
        else:
            self.key_positions = ()

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        if isinstance(self.policy, ReplicatedDistribution):
            return len(self.parts[0])
        return sum(len(part) for part in self.parts)

    def all_rows(self) -> List[Row]:
        if isinstance(self.policy, ReplicatedDistribution):
            return list(self.parts[0].rows)
        rows: List[Row] = []
        for part in self.parts:
            rows.extend(part.rows)
        return rows


class FrameRef:
    """A distributed intermediate result living in the segment
    interpreter(s) that computed it.

    The planner only holds the metadata — per-segment row counts and the
    distribution; the rows stay where they are until
    :meth:`SegmentOps.localize`."""

    __slots__ = ("columns", "dist", "handle", "counts")

    def __init__(
        self, columns: List[str], dist: DistDesc, handle: int, counts: List[int]
    ) -> None:
        self.columns = columns
        self.dist = dist
        self.handle = handle
        self.counts = counts

    @property
    def total_rows(self) -> int:
        if self.dist.kind == "replicated":
            return self.counts[0]
        return sum(self.counts)


class Shards:
    """A statement's result rows, fetched into the master process."""

    __slots__ = ("columns", "parts", "dist")

    def __init__(
        self, columns: List[str], parts: List[List[Row]], dist: DistDesc
    ) -> None:
        self.columns = columns
        self.parts = parts
        self.dist = dist

    @property
    def total_rows(self) -> int:
        if self.dist.kind == "replicated":
            return len(self.parts[0])
        return sum(len(part) for part in self.parts)

    def gathered(self) -> List[Row]:
        if self.dist.kind == "replicated":
            return list(self.parts[0])
        rows: List[Row] = []
        for part in self.parts:
            rows.extend(part)
        return rows


class MPPDatabase:
    """A simulated shared-nothing MPP cluster.

    With ``num_workers=0`` (the default) all segments execute serially
    in-process.  With ``num_workers=N`` a persistent pool of N worker
    processes is spawned, segments are assigned round-robin to workers,
    and every query plan runs inside the pool.
    """

    def __init__(
        self,
        nseg: int = 8,
        name: str = "mpp",
        num_workers: int = 0,
        worker_timeout: float = 60.0,
        plan_mode: str = "adaptive",
        verify_plans: Optional[bool] = None,
    ) -> None:
        ensure(nseg >= 1, ExecutionError, "need at least one segment")
        ensure(
            plan_mode in PLAN_MODES,
            ExecutionError,
            f"plan_mode must be one of {PLAN_MODES}, got {plan_mode!r}",
        )
        self.name = name
        self.nseg = nseg
        self.plan_mode = plan_mode
        #: the static planner's verdict on the most recent statement
        #: (``plan_mode="static"`` only)
        self.last_static_plan: Optional[StaticPlan] = None
        self.tables: Dict[str, MPPTable] = {}
        self.segment_clocks = [CostClock() for _ in range(nseg)]
        self.master_clock = CostClock()
        #: simulated elapsed seconds (parallel time), accumulated per query
        self.elapsed_seconds = 0.0
        self.last_plan: Optional[PhysicalNode] = None
        self._matview_sources: Dict[str, str] = {}
        #: mirror tables kept in sync with a source table's DML —
        #: how redistributed matviews stay fresh incrementally
        self._mirrors: Dict[str, List[str]] = {}
        #: debug gate: statically verify every distinct plan once before
        #: it executes (None defers to the PROBKB_VERIFY_PLANS env var)
        self.verify_plans = verify_plans_enabled(verify_plans)
        self._verified_plans: "weakref.WeakSet[PlanNode]" = weakref.WeakSet()
        self.pool: Optional[WorkerPool] = None
        self.num_workers = 0
        self.degraded_reason: Optional[str] = None
        if num_workers:
            self.pool = WorkerPool(
                nseg, num_workers, reply_timeout=worker_timeout
            )
            self.num_workers = self.pool.num_workers

    # ------------------------------------------------------------------ pool

    @property
    def degraded(self) -> bool:
        """True if a worker pool was lost and the database fell back to
        the serial executor."""
        return self.degraded_reason is not None

    def executor_info(self) -> Dict[str, object]:
        return {
            "mode": "multiprocess" if self.pool is not None else "serial",
            "segments": self.nseg,
            "workers": self.pool.num_workers if self.pool is not None else 0,
            "degraded": self.degraded,
            "plan": self.plan_mode,
            # segments run the columnar operators, and only those: the
            # row engine is the single-node backend's test reference
            "engine": "columnar",
        }

    def close(self) -> None:
        """Shut down the worker pool (no-op in serial mode)."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "MPPDatabase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _degrade(self, error: BaseException) -> None:
        """Lose the pool: record why, kill it, continue serially."""
        pool, self.pool = self.pool, None
        self.degraded_reason = str(error) or type(error).__name__
        if pool is not None:
            pool.close(force=True)
        warnings.warn(
            "MPP worker pool lost "
            f"({self.degraded_reason}); continuing with the serial executor",
            RuntimeWarning,
            stacklevel=3,
        )

    def _run_plan(self, plan: PlanNode) -> Tuple[Shards, PhysicalNode]:
        """Execute a logical plan, returning master-local shards and the
        recorded physical plan.

        In pooled mode the plan runs inside the workers and only the
        result rows come back.  Plan execution never mutates stored
        tables, so if the pool dies mid-plan the statement simply
        retries in-process over the master's authoritative shards, with
        the segment clocks rewound to where the aborted attempt found
        them: a degraded statement charges what a serial one does."""
        static_choices = self._plan_statically(plan)
        verify = self.verify_plans and plan not in self._verified_plans
        if verify:
            # pre-execution: the logical tree, and in static mode the
            # statically planned physical tree (motions included)
            verify_plan(plan, tables=self.tables, name="mpp logical plan") \
                .raise_if_errors()
            if self.plan_mode == "static" and self.last_static_plan is not None:
                self._verify_physical(
                    self.last_static_plan.root, "mpp static plan"
                )
        shards, node = self._execute_plan(plan, static_choices)
        if verify:
            # post-execution: the physical trace the adaptive executor
            # actually recorded (motions chosen from real sizes)
            self._verify_physical(node, "mpp physical plan")
            self._verified_plans.add(plan)
        return shards, node

    def _verify_physical(self, root: PhysicalNode, name: str) -> None:
        from .verify import verify_physical_plan

        table_dists = {
            table_name: self._policy_dist(table.policy)
            for table_name, table in self.tables.items()
        }
        verify_physical_plan(
            root, self.nseg, table_dists=table_dists, name=name
        ).raise_if_errors()

    @staticmethod
    def _policy_dist(policy: DistributionPolicy) -> DistDesc:
        if isinstance(policy, ReplicatedDistribution):
            return DistDesc.replicated()
        if policy.key_columns is not None:
            return DistDesc.hash_on(policy.key_columns)
        return DistDesc.arbitrary()

    def _execute_plan(
        self, plan: PlanNode, static_choices: Optional[Dict[int, str]]
    ) -> Tuple[Shards, PhysicalNode]:
        if self.pool is not None:
            clocks_before = [clock.copy() for clock in self.segment_clocks]
            try:
                return self._interpret(plan, static_choices)
            except WorkerCrashError as error:
                self._degrade(error)
                for clock, before in zip(self.segment_clocks, clocks_before):
                    clock.reset()
                    clock.merge(before)
            finally:
                self._reset_pool()
        return self._interpret(plan, static_choices)

    def _interpret(
        self, plan: PlanNode, static_choices: Optional[Dict[int, str]]
    ) -> Tuple[Shards, PhysicalNode]:
        """Plan and run on the pool if there is one, else in-process."""
        executor = _MPPExecutor(self, static_choices)
        ref, node = executor.exec_plan(plan)
        return executor.ops.localize(ref), node

    def _plan_statically(self, plan: PlanNode) -> Optional[Dict[int, str]]:
        """In static mode, pre-decide the cost-based join motions from
        catalog statistics over the plan's stored tables (ANALYZE +
        planning, before any row is read)."""
        if self.plan_mode != "static":
            return None
        table_names = {scan.table_name for scan in scans_of(plan)}
        catalog = collect_mpp_statistics(self, table_names)
        static_plan = StaticPlanner(catalog, self.nseg).plan(plan)
        self.last_static_plan = static_plan
        return static_plan.fallback_choices

    def _reset_pool(self) -> None:
        """Free worker-side intermediates after a statement."""
        if self.pool is None:
            return
        try:
            self.pool.reset_intermediates()
        except WorkerCrashError as error:
            self._degrade(error)

    def _pool_send(self, command: Tuple) -> None:
        """Mirror one DML effect into every worker (no-op without a pool)."""
        if self.pool is None:
            return
        try:
            self.pool.dispatch(command)
        except WorkerCrashError as error:
            self._degrade(error)

    def _pool_send_shards(
        self,
        op: str,
        name: str,
        shards: List[List[Row]],
        truncate_first: Optional[bool] = None,
    ) -> None:
        """Ship per-segment row lists to the workers owning them."""
        if self.pool is None:
            return

        def build(worker_id: int, segments: List[int]) -> Tuple:
            payload = {
                seg: shards[seg]
                for seg in segments
                if shards[seg] or truncate_first
            }
            if truncate_first is None:
                return (op, name, payload)
            return (op, name, payload, truncate_first)

        try:
            self.pool.dispatch(per_worker=build)
        except WorkerCrashError as error:
            self._degrade(error)

    # ------------------------------------------------------------------ DDL

    def create_table(
        self,
        table_schema: TableSchema,
        policy: Optional[DistributionPolicy] = None,
        replace: bool = False,
    ) -> MPPTable:
        if table_schema.name in self.tables and not replace:
            raise ExecutionError(f"table {table_schema.name!r} already exists")
        if policy is None:
            policy = RandomDistribution()
        table = MPPTable(table_schema, policy, self.nseg)
        self.tables[table_schema.name] = table
        self._pool_send(("create_table", table_schema))
        return table

    def drop_table(self, name: str) -> None:
        self.tables.pop(name, None)
        self._matview_sources.pop(name, None)
        self._pool_send(("drop_table", name))

    def table(self, name: str) -> MPPTable:
        try:
            return self.tables[name]
        except KeyError:
            raise ExecutionError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def create_redistributed_matview(
        self,
        name: str,
        source_table: str,
        key_columns: Sequence[str],
    ) -> MPPTable:
        """A redistributed materialized view of a table (Section 4.4).

        Same rows as ``source_table`` but hash-distributed on
        ``key_columns`` so joins on those columns are collocated.
        """
        source = self.table(source_table)
        view_schema = TableSchema(
            name, source.schema.columns, unique_key=source.schema.unique_key
        )
        view = self.create_table(
            view_schema, HashDistribution(key_columns), replace=True
        )
        self._matview_sources[name] = source_table
        self.refresh_matview(name)
        return view

    def refresh_matview(self, name: str) -> None:
        source_name = self._matview_sources.get(name)
        ensure(source_name is not None, ExecutionError, f"{name!r} is not a matview")
        view = self.table(name)
        rows = self.table(source_name).all_rows()  # type: ignore[arg-type]
        for part in view.parts:
            part.truncate()
        self._pool_send(("truncate", name))
        self._timed_statement(
            lambda: self._load_partitioned(view, rows, charge_ship=True)
        )

    def refresh_all_matviews(self) -> None:
        """Algorithm 1's ``redistribute(TΠ)`` step."""
        for name in list(self._matview_sources):
            self.refresh_matview(name)

    @property
    def matviews(self) -> List[str]:
        return list(self._matview_sources)

    # -- mirrors (incremental matview maintenance) --------------------------

    def add_mirror(self, source_table: str, mirror_table: str) -> None:
        """Keep ``mirror_table`` synchronized with DML on ``source_table``
        (each mirror has its own distribution — the redistributed
        materialized views of Section 4.4)."""
        self.table(source_table)
        self.table(mirror_table)
        self._mirrors.setdefault(source_table, []).append(mirror_table)

    def _mirror_insert(self, source_table: str, rows: Sequence[Row]) -> None:
        for mirror_name in self._mirrors.get(source_table, ()):
            mirror = self.table(mirror_name)
            shards = partition_rows(rows, mirror.policy, mirror.key_positions, self.nseg)
            for seg, shard in enumerate(shards):
                stored = mirror.parts[seg].insert(shard)
                clock = self.segment_clocks[seg]
                clock.rows_shipped += len(shard)
                clock.rows_inserted += stored
            self._pool_send_shards("insert_shards", mirror_name, shards)

    def _mirror_delete(
        self, source_table: str, column_names: Sequence[str], keys: Set[Row]
    ) -> None:
        for mirror_name in self._mirrors.get(source_table, ()):
            mirror = self.table(mirror_name)
            for seg, part in enumerate(mirror.parts):
                self.segment_clocks[seg].rows_broadcast += len(keys)
                part.delete_in(column_names, keys)
            self._pool_send(
                ("delete_keys", mirror_name, tuple(column_names), list(keys))
            )

    # ------------------------------------------------------------------ DML

    def bulkload(self, table_name: str, rows: Sequence[Row]) -> int:
        """COPY-style load: one statement, rows hashed to their segments."""
        table = self.table(table_name)
        row_list = list(rows)

        def work() -> int:
            stored = self._load_partitioned(table, row_list, charge_ship=False)
            self._mirror_insert(table_name, row_list)
            return stored

        return self._timed_statement(work)

    insert_rows = bulkload

    def insert_from(self, table_name: str, plan: PlanNode) -> int:
        """INSERT INTO table SELECT ...: result redistributed to the
        target's distribution, deduplicated per segment."""
        table = self.table(table_name)

        def work() -> int:
            shards, node = self._run_plan(plan)
            self.last_plan = node
            rows = shards.gathered() if shards.dist.kind == "replicated" else None
            if rows is not None:
                stored = self._load_partitioned(table, rows, charge_ship=True)
                self._mirror_insert(table_name, rows)
                return stored
            inserted = 0
            # ship every row to its home segment, charging receivers
            incoming: List[List[Row]] = [[] for _ in range(self.nseg)]
            for seg, part in enumerate(shards.parts):
                for row in part:
                    target = self._segment_for(table, row)
                    if target != seg:
                        self.segment_clocks[target].rows_shipped += 1
                    incoming[target].append(row)
            for seg, part in enumerate(incoming):
                stored = table.parts[seg].insert(part)
                self.segment_clocks[seg].rows_inserted += stored
                inserted += stored
            self._pool_send_shards("insert_shards", table_name, incoming)
            self._mirror_insert(
                table_name, [row for part in incoming for row in part]
            )
            return inserted

        return self._timed_statement(work)

    def insert_from_with_ids(
        self,
        table_name: str,
        plan: PlanNode,
        next_id: int,
        pad_nulls: int = 0,
    ) -> Tuple[int, int]:
        """INSERT ... SELECT with a leading sequence column, fully
        distributed: each segment stamps ids from its slice of the
        sequence (only per-segment row *counts* travel to the master),
        then rows ship to their home segments.  Returns (inserted,
        next sequence value)."""
        table = self.table(table_name)
        padding: Row = (None,) * pad_nulls

        def work() -> Tuple[int, int]:
            shards, node = self._run_plan(plan)
            self.last_plan = node
            source_parts = (
                [shards.gathered()]
                if shards.dist.kind == "replicated"
                else shards.parts
            )
            sequence = next_id
            incoming: List[List[Row]] = [[] for _ in range(self.nseg)]
            for seg, part in enumerate(source_parts):
                for row in part:
                    full_row = (sequence,) + row + padding
                    sequence += 1
                    target = self._segment_for(table, full_row)
                    if target != seg:
                        self.segment_clocks[target].rows_shipped += 1
                    incoming[target].append(full_row)
            inserted = 0
            for seg, part in enumerate(incoming):
                stored = table.parts[seg].insert(part)
                self.segment_clocks[seg].rows_inserted += stored
                inserted += stored
            self._pool_send_shards("insert_shards", table_name, incoming)
            self._mirror_insert(
                table_name, [row for part in incoming for row in part]
            )
            return inserted, sequence

        return self._timed_statement(work)

    def delete_in(
        self,
        table_name: str,
        column_names: Sequence[str],
        key_plan: PlanNode,
    ) -> int:
        """DELETE FROM table WHERE (cols) IN (subplan): the key set is
        gathered on the master and broadcast to all segments."""
        table = self.table(table_name)

        def work() -> int:
            shards, node = self._run_plan(key_plan)
            self.last_plan = node
            keys: Set[Row] = set(shards.gathered())
            self.master_clock.rows_shipped += len(keys)
            removed = 0
            for seg, part in enumerate(table.parts):
                self.segment_clocks[seg].rows_broadcast += len(keys)
                removed += part.delete_in(column_names, keys)
            self._pool_send(
                ("delete_keys", table_name, tuple(column_names), list(keys))
            )
            self._mirror_delete(table_name, column_names, keys)
            return removed

        return self._timed_statement(work)

    def truncate(self, table_name: str) -> None:
        table = self.table(table_name)
        for part in table.parts:
            part.truncate()
        self._pool_send(("truncate", table_name))

    # ------------------------------------------------------------------ query

    def query(self, plan: PlanNode) -> Result:
        """Execute a logical plan; the result is gathered on the master."""

        def work() -> Result:
            shards, node = self._run_plan(plan)
            rows = shards.gathered()
            self.master_clock.rows_shipped += len(rows)
            gather = PhysicalNode("Gather Motion", rows=len(rows))
            gather.dist = DistDesc.arbitrary()
            gather.children.append(node)
            self.last_plan = gather
            return Result(shards.columns, rows)

        return self._timed_statement(work)

    def execute_sql(self, sql: str) -> Result:
        """Parse and execute a SELECT statement on the cluster."""
        from ..relational.sqlparse import parse_sql

        return self.query(parse_sql(sql))

    def explain_last(self) -> str:
        """EXPLAIN ANALYZE text of the most recent statement's plan."""
        ensure(self.last_plan is not None, ExecutionError, "no plan recorded")
        return self.last_plan.explain()  # type: ignore[union-attr]

    # ------------------------------------------------------------------ cost

    @property
    def work_clock(self) -> CostClock:
        """Total work across all segments plus the master."""
        merged = CostClock()
        for clock in self.segment_clocks:
            merged.merge(clock)
        merged.merge(self.master_clock)
        return merged

    # ------------------------------------------------------------------ internals

    def _segment_for(self, table: MPPTable, row: Row) -> int:
        return table.policy.segment_of(row, table.key_positions, self.nseg)

    def _load_partitioned(
        self, table: MPPTable, rows: List[Row], charge_ship: bool
    ) -> int:
        shards = partition_rows(rows, table.policy, table.key_positions, self.nseg)
        replicated = isinstance(table.policy, ReplicatedDistribution)
        if replicated:
            for part in table.parts:
                part.truncate()
        inserted = 0
        for seg, shard in enumerate(shards):
            stored = table.parts[seg].insert(shard)
            clock = self.segment_clocks[seg]
            clock.rows_inserted += stored
            if charge_ship:
                clock.rows_shipped += len(shard)
            inserted += stored
        self._pool_send_shards(
            "load_shards", table.name, shards, truncate_first=replicated
        )
        if replicated:
            return len(table.parts[0])
        return inserted

    def _timed_statement(self, work: Callable[[], _T]) -> _T:
        """Run one statement, updating the simulated parallel clock."""
        seg_before = [clock.seconds for clock in self.segment_clocks]
        master_before = self.master_clock.seconds
        self.master_clock.charge_query()
        outcome = work()
        seg_delta = max(
            clock.seconds - before
            for clock, before in zip(self.segment_clocks, seg_before)
        )
        master_delta = self.master_clock.seconds - master_before
        self.elapsed_seconds += seg_delta + master_delta
        return outcome


class SegmentOps:
    """One command per physical operator, dispatched to the segment
    interpreter(s): every worker of the cluster's pool, or — with no
    pool — one in-process interpreter that owns all segments and reads
    the master's table shards in place.

    Each method returns a :class:`FrameRef`; the rows stay with the
    interpreters.  Their per-segment clock deltas ride back on the
    replies and are merged into the cluster's segment clocks, so the
    planner's timing and EXPLAIN output do not depend on the mode."""

    def __init__(self, cluster: MPPDatabase) -> None:
        self.nseg = cluster.nseg
        self.clocks = cluster.segment_clocks
        self._next_handle = itertools.count(1).__next__
        pool = cluster.pool
        if pool is not None:
            self._dispatch: Callable[[Tuple], Dict[int, dict]] = pool.dispatch
            # pool-wide, so a piece left over from an aborted statement
            # can never pass for one of this statement's
            self._next_epoch = pool.next_epoch
        else:
            local = SegmentInterpreter(
                range(self.nseg),
                self.nseg,
                lambda name, seg: cluster.tables[name].parts[seg],
                LocalExchange(),
            )
            self._dispatch = lambda command: {0: local.execute(command)}
            self._next_epoch = itertools.count(1).__next__

    def _run(
        self, op: str, args: Tuple, columns: List[str], dist: DistDesc
    ) -> FrameRef:
        handle = self._next_handle()
        counts = [0] * self.nseg
        for payload in self._dispatch((op, handle) + args).values():
            for seg, count in payload["counts"].items():
                counts[seg] = count
            for seg, delta in payload["deltas"].items():
                self.clocks[seg].merge(delta)
        return FrameRef(columns, dist, handle, counts)

    def scan(self, table: MPPTable, columns: List[str], dist: DistDesc) -> FrameRef:
        return self._run("scan", (table.name, columns), columns, dist)

    def values(self, rows: List[Row], columns: List[str]) -> FrameRef:
        return self._run("values", (rows, columns), columns, DistDesc.arbitrary())

    def filter(self, child: FrameRef, predicate: Expr) -> FrameRef:
        return self._run(
            "filter", (child.handle, predicate), child.columns, child.dist
        )

    def project(
        self,
        child: FrameRef,
        outputs: Sequence[Tuple[Expr, str]],
        out_columns: List[str],
        dist: DistDesc,
    ) -> FrameRef:
        args = (child.handle, list(outputs), out_columns)
        return self._run("project", args, out_columns, dist)

    def join(
        self,
        left: FrameRef,
        right: FrameRef,
        lpos: List[int],
        rpos: List[int],
        residual: Optional[Expr],
        out_dist: DistDesc,
    ) -> FrameRef:
        both_replicated = (
            left.dist.kind == "replicated" and right.dist.kind == "replicated"
        )
        args = (left.handle, right.handle, lpos, rpos, residual, both_replicated)
        return self._run("join", args, left.columns + right.columns, out_dist)

    def anti_join(
        self,
        left: FrameRef,
        right: FrameRef,
        lpos: List[int],
        rpos: List[int],
        out_dist: DistDesc,
    ) -> FrameRef:
        args = (
            left.handle, right.handle, lpos, rpos, left.dist.kind == "replicated"
        )
        return self._run("anti_join", args, left.columns, out_dist)

    def distinct(self, child: FrameRef) -> FrameRef:
        return self._run("distinct", (child.handle,), child.columns, child.dist)

    def aggregate(
        self,
        child: FrameRef,
        group_pos: List[int],
        aggregates: Sequence[AggregateSpec],
        agg_pos: Sequence[Optional[int]],
        having: Optional[Expr],
        out_columns: List[str],
        out_dist: DistDesc,
    ) -> FrameRef:
        args = (
            child.handle, group_pos, list(aggregates), list(agg_pos), having,
            out_columns,
        )
        return self._run("aggregate", args, out_columns, out_dist)

    def union(
        self, children: List[FrameRef], out_columns: List[str], dist: DistDesc
    ) -> FrameRef:
        sources = [
            (child.handle, child.dist.kind == "replicated") for child in children
        ]
        return self._run("union", (sources, out_columns), out_columns, dist)

    def _motion(
        self, op: str, source: FrameRef, args: Tuple, dist: DistDesc
    ) -> FrameRef:
        args = (source.handle,) + args + (
            self._next_epoch(), source.dist.kind == "replicated",
        )
        return self._run(op, args, source.columns, dist)

    def redistribute(
        self, source: FrameRef, positions: List[int], keys: List[str]
    ) -> FrameRef:
        return self._motion(
            "redistribute", source, (positions,), DistDesc.hash_on(keys)
        )

    def broadcast(self, source: FrameRef) -> FrameRef:
        return self._motion("broadcast", source, (), DistDesc.replicated())

    def gather_first(self, source: FrameRef) -> FrameRef:
        return self._motion("gather_first", source, (), DistDesc.arbitrary())

    def sort(self, child: FrameRef, keys: Sequence[Tuple[int, bool]]) -> FrameRef:
        return self._run(
            "sort", (child.handle, list(keys)), child.columns, DistDesc.arbitrary()
        )

    def limit(self, child: FrameRef, limit: int) -> FrameRef:
        return self._run(
            "limit", (child.handle, limit), child.columns, DistDesc.arbitrary()
        )

    def localize(self, ref: FrameRef) -> Shards:
        """Fetch a frame's rows into the master process."""
        replicated = ref.dist.kind == "replicated"
        command = ("fetch", ref.handle, (0,) if replicated else None)
        parts: List[List[Row]] = [[] for _ in range(self.nseg)]
        for payload in self._dispatch(command).values():
            for seg, batch in payload["batches"].items():
                parts[seg] = batch.to_rows()
        if replicated:
            # full copies on every segment, shared read-only
            parts = [parts[0]] * self.nseg
        return Shards(ref.columns, parts, ref.dist)


class _MPPExecutor:
    """Adaptive planner over distributed frames.

    Decides collocation/motions and records the physical plan; the
    per-segment work goes through :class:`SegmentOps` to the segment
    interpreter(s) — in-process, or the cluster's worker pool."""

    def __init__(
        self,
        cluster: MPPDatabase,
        static_choices: Optional[Dict[int, str]] = None,
    ) -> None:
        self.cluster = cluster
        self.nseg = cluster.nseg
        self.clocks = cluster.segment_clocks
        self.ops = SegmentOps(cluster)
        #: pre-decided broadcast-vs-redistribute choices per HashJoin
        #: logical node (``plan_mode="static"``); None = decide adaptively
        self.static_choices = static_choices

    # -- entry ---------------------------------------------------------------

    def exec_plan(self, plan: PlanNode) -> Tuple[FrameRef, PhysicalNode]:
        self._bind(plan)
        return self._exec(plan)

    def _bind(self, plan: PlanNode) -> None:
        for node in walk(plan):
            if isinstance(node, Scan):
                table = self.cluster.tables.get(node.table_name)
                if table is None:
                    raise ExecutionError(f"unknown table {node.table_name!r}")
                node.set_table_columns(table.schema.column_names)

    # -- timing helper ---------------------------------------------------------

    def _timed(self, node: PhysicalNode, work: Callable[[], FrameRef]) -> FrameRef:
        before = [clock.seconds for clock in self.clocks]
        shards = work()
        node.seconds = max(
            clock.seconds - b for clock, b in zip(self.clocks, before)
        )
        node.rows = shards.total_rows
        node.dist = shards.dist
        return shards

    # -- dispatch ----------------------------------------------------------------

    def _exec(self, plan: PlanNode) -> Tuple[FrameRef, PhysicalNode]:
        handler = {
            Scan: self._exec_scan,
            Values: self._exec_values,
            Filter: self._exec_filter,
            Project: self._exec_project,
            HashJoin: self._exec_join,
            AntiJoin: self._exec_anti_join,
            Distinct: self._exec_distinct,
            Aggregate: self._exec_aggregate,
            UnionAll: self._exec_union,
            Sort: self._exec_sort,
            Limit: self._exec_limit,
        }.get(type(plan))
        if handler is None:
            raise ExecutionError(f"unsupported MPP plan node {type(plan).__name__}")
        return handler(plan)

    # -- leaf nodes -----------------------------------------------------------

    def _exec_scan(self, plan: Scan) -> Tuple[FrameRef, PhysicalNode]:
        table = self.cluster.table(plan.table_name)
        columns = plan.output_columns
        if isinstance(table.policy, ReplicatedDistribution):
            dist = DistDesc.replicated()
        elif table.policy.key_columns is not None:
            dist = DistDesc.hash_on(
                f"{plan.alias}.{c}" for c in table.policy.key_columns
            )
        else:
            dist = DistDesc.arbitrary()
        node = PhysicalNode("Seq Scan", f"on {plan.table_name}")
        shards = self._timed(node, lambda: self.ops.scan(table, columns, dist))
        return shards, node

    def _exec_values(self, plan: Values) -> Tuple[FrameRef, PhysicalNode]:
        node = PhysicalNode("Values", rows=len(plan.rows))
        shards = self.ops.values(list(plan.rows), plan.output_columns)
        node.dist = shards.dist
        return shards, node

    # -- unary nodes ----------------------------------------------------------

    def _exec_filter(self, plan: Filter) -> Tuple[FrameRef, PhysicalNode]:
        child, child_node = self._exec(plan.child)
        node = PhysicalNode("Filter", plan.predicate.to_sql())
        node.children.append(child_node)
        shards = self._timed(node, lambda: self.ops.filter(child, plan.predicate))
        return shards, node

    def _exec_project(self, plan: Project) -> Tuple[FrameRef, PhysicalNode]:
        child, child_node = self._exec(plan.child)
        dist = self._project_dist(plan, child)
        node = PhysicalNode("Project")
        node.children.append(child_node)
        shards = self._timed(
            node,
            lambda: self.ops.project(
                child, plan.outputs, plan.output_columns, dist
            ),
        )
        return shards, node

    def _project_dist(self, plan: Project, child: FrameRef) -> DistDesc:
        """Track the hash distribution through column renames."""
        return project_dist(plan.outputs, child.columns, child.dist)

    # -- joins ------------------------------------------------------------------

    def _exec_join(self, plan: HashJoin) -> Tuple[FrameRef, PhysicalNode]:
        left, left_node = self._exec(plan.left)
        right, right_node = self._exec(plan.right)
        left_keys = [
            left.columns[resolve_column(k, left.columns)] for k in plan.left_keys
        ]
        right_keys = [
            right.columns[resolve_column(k, right.columns)] for k in plan.right_keys
        ]

        left, right, left_node, right_node, out_dist = self._collocate(
            left, right, left_keys, right_keys, left_node, right_node, plan
        )

        lpos = [resolve_column(k, left.columns) for k in left_keys]
        rpos = [resolve_column(k, right.columns) for k in right_keys]
        if left.dist.kind == "replicated" and right.dist.kind == "replicated":
            out_dist = DistDesc.arbitrary()
        node = PhysicalNode("Hash Join", join_detail(left_keys, right_keys))
        node.children.extend([left_node, right_node])
        shards = self._timed(
            node,
            lambda: self.ops.join(
                left, right, lpos, rpos, plan.residual, out_dist
            ),
        )
        return shards, node

    def _collocate(
        self,
        left: FrameRef,
        right: FrameRef,
        left_keys: List[str],
        right_keys: List[str],
        left_node: PhysicalNode,
        right_node: PhysicalNode,
        plan: HashJoin,
    ) -> Tuple[FrameRef, FrameRef, PhysicalNode, PhysicalNode, DistDesc]:
        """Insert motions so the two join inputs are collocated.

        Returns possibly-moved shards, their (possibly motion-wrapped)
        plan nodes, and the output distribution of the join.
        """
        # replicated inputs join locally against anything
        if left.dist.kind == "replicated":
            return left, right, left_node, right_node, right.dist
        if right.dist.kind == "replicated":
            return left, right, left_node, right_node, left.dist

        # a side hashed on a SUBSET of its join keys is collocatable:
        # equal join keys imply equal subset values, hence same segment
        left_perm = subset_perm(left.dist, left_keys)
        right_perm = subset_perm(right.dist, right_keys)
        if left_perm is not None and left_perm == right_perm:
            return left, right, left_node, right_node, left.dist

        if left_perm is not None:
            # move right to hash on the columns corresponding to left's
            keys = [right_keys[i] for i in left_perm]
            right, right_node = self._redistribute(right, keys, right_node)
            return left, right, left_node, right_node, left.dist
        if right_perm is not None:
            keys = [left_keys[i] for i in right_perm]
            left, left_node = self._redistribute(left, keys, left_node)
            return left, right, left_node, right_node, right.dist

        # neither collocated: cost-based redistribute-both vs
        # broadcast-smaller — from actual sizes (adaptive) or from the
        # static planner's estimates (plan_mode="static")
        choice = None
        if self.static_choices is not None:
            choice = self.static_choices.get(id(plan))
        if choice is None:
            choice = choose_fallback_motion(
                left.total_rows, right.total_rows, self.nseg
            )
        if choice == FALLBACK_BROADCAST_LEFT:
            left, left_node = self._broadcast(left, left_node)
            return left, right, left_node, right_node, right.dist
        if choice == FALLBACK_BROADCAST_RIGHT:
            right, right_node = self._broadcast(right, right_node)
            return left, right, left_node, right_node, left.dist
        left, left_node = self._redistribute(left, left_keys, left_node)
        right, right_node = self._redistribute(right, right_keys, right_node)
        return left, right, left_node, right_node, left.dist

    def _exec_anti_join(self, plan: AntiJoin) -> Tuple[FrameRef, PhysicalNode]:
        """NOT EXISTS: valid per-segment when every right row that could
        match a left row lives on the left row's segment — i.e. the
        right side is replicated, or both sides are hashed on the
        (corresponding) anti-join keys."""
        left, left_node = self._exec(plan.left)
        right, right_node = self._exec(plan.right)
        left_keys = [
            left.columns[resolve_column(k, left.columns)] for k in plan.left_keys
        ]
        right_keys = [
            right.columns[resolve_column(k, right.columns)] for k in plan.right_keys
        ]
        if right.dist.kind != "replicated":
            left_perm = subset_perm(left.dist, left_keys)
            right_perm = subset_perm(right.dist, right_keys)
            if left_perm is not None and left_perm == right_perm:
                pass  # already collocated
            elif right_perm is not None:
                keys = [left_keys[i] for i in right_perm]
                left, left_node = self._redistribute(left, keys, left_node)
            elif left_perm is not None:
                keys = [right_keys[i] for i in left_perm]
                right, right_node = self._redistribute(right, keys, right_node)
            else:
                left, left_node = self._redistribute(left, left_keys, left_node)
                right, right_node = self._redistribute(right, right_keys, right_node)

        lpos = [resolve_column(k, left.columns) for k in left_keys]
        rpos = [resolve_column(k, right.columns) for k in right_keys]
        out_dist = (
            left.dist if left.dist.kind != "replicated" else DistDesc.arbitrary()
        )
        node = PhysicalNode("Hash Anti Join", join_detail(left_keys, right_keys))
        node.children.extend([left_node, right_node])
        shards = self._timed(
            node, lambda: self.ops.anti_join(left, right, lpos, rpos, out_dist)
        )
        return shards, node

    # -- motions -------------------------------------------------------------

    def _redistribute(
        self, shards: FrameRef, keys: List[str], child_node: PhysicalNode
    ) -> Tuple[FrameRef, PhysicalNode]:
        positions = [resolve_column(k, shards.columns) for k in keys]
        node = PhysicalNode("Redistribute Motion", f"on ({', '.join(keys)})")
        node.children.append(child_node)
        moved = self._timed(
            node, lambda: self.ops.redistribute(shards, positions, keys)
        )
        return moved, node

    def _broadcast(
        self, shards: FrameRef, child_node: PhysicalNode
    ) -> Tuple[FrameRef, PhysicalNode]:
        node = PhysicalNode("Broadcast Motion")
        node.children.append(child_node)
        moved = self._timed(node, lambda: self.ops.broadcast(shards))
        return moved, node

    def _gather_to_first(
        self, shards: FrameRef, child_node: PhysicalNode
    ) -> Tuple[FrameRef, PhysicalNode]:
        node = PhysicalNode("Gather Motion", "to seg0")
        node.children.append(child_node)
        moved = self._timed(node, lambda: self.ops.gather_first(shards))
        return moved, node

    # -- distinct / aggregate / union / limit -------------------------------------

    def _exec_distinct(self, plan: Distinct) -> Tuple[FrameRef, PhysicalNode]:
        child, child_node = self._exec(plan.child)
        if child.dist.kind == "arbitrary":
            child, child_node = self._redistribute(
                child, list(child.columns), child_node
            )
        node = PhysicalNode("Distinct")
        node.children.append(child_node)
        shards = self._timed(node, lambda: self.ops.distinct(child))
        return shards, node

    def _exec_aggregate(self, plan: Aggregate) -> Tuple[FrameRef, PhysicalNode]:
        child, child_node = self._exec(plan.child)
        if plan.group_by:
            if (
                child.dist.kind != "hash"
                or not set(child.dist.columns or ()) <= qualified_set(plan.group_by, child.columns)
            ):
                keys = [
                    child.columns[resolve_column(c, child.columns)]
                    for c in plan.group_by
                ]
                child, child_node = self._redistribute(child, keys, child_node)
        else:
            child, child_node = self._gather_to_first(child, child_node)

        group_pos = [resolve_column(c, child.columns) for c in plan.group_by]
        agg_pos = [
            resolve_column(c, child.columns) if c is not None else None
            for _, c, _ in plan.aggregates
        ]
        out_columns = plan.output_columns
        out_dist = (
            DistDesc.hash_on(plan.group_by)
            if plan.group_by
            else DistDesc.arbitrary()
        )
        node = PhysicalNode("HashAggregate", f"group by ({', '.join(plan.group_by)})")
        node.children.append(child_node)
        shards = self._timed(
            node,
            lambda: self.ops.aggregate(
                child, group_pos, plan.aggregates, agg_pos, plan.having,
                out_columns, out_dist,
            ),
        )
        return shards, node

    def _exec_union(self, plan: UnionAll) -> Tuple[FrameRef, PhysicalNode]:
        results = [self._exec(child) for child in plan.children]
        node = PhysicalNode("Append")
        node.children.extend(child_node for _, child_node in results)
        out_columns = plan.output_columns
        dists = set()
        for shards, _ in results:
            if shards.dist.kind == "replicated":
                dists.add(DistDesc.arbitrary())
            else:
                dists.add(shards.dist)
        dist = dists.pop() if len(dists) == 1 else DistDesc.arbitrary()
        shards = self._timed(
            node,
            lambda: self.ops.union(
                [child for child, _ in results], out_columns, dist
            ),
        )
        return shards, node

    def _exec_sort(self, plan: Sort) -> Tuple[FrameRef, PhysicalNode]:
        """Global order requires a gather; the sort runs on segment 0
        (a merge of per-segment sorted runs in a real system)."""
        child, child_node = self._exec(plan.child)
        child, child_node = self._gather_to_first(child, child_node)
        positions = [
            (resolve_column(name, child.columns), descending)
            for name, descending in plan.keys
        ]
        node = PhysicalNode("Sort", plan.describe().replace("Sort: ", ""))
        node.children.append(child_node)
        shards = self._timed(node, lambda: self.ops.sort(child, positions))
        return shards, node

    def _exec_limit(self, plan: Limit) -> Tuple[FrameRef, PhysicalNode]:
        if plan.limit < 0:
            # same guard as the single-node executors (a negative limit
            # would silently slice rows off the end), raised here so the
            # error never reaches a worker and costs the pool
            raise ExecutionError(
                f"Limit must be non-negative, got {plan.limit}"
            )
        child, child_node = self._exec(plan.child)
        child, child_node = self._gather_to_first(child, child_node)
        node = PhysicalNode("Limit", str(plan.limit))
        node.children.append(child_node)
        shards = self._timed(node, lambda: self.ops.limit(child, plan.limit))
        return shards, node


