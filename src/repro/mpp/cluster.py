"""The shared-nothing MPP database simulator (the Greenplum stand-in).

An :class:`MPPDatabase` holds hash/replicated/randomly distributed tables
across N segments, executes the same logical plans as the single-node
engine, and inserts the *motion* operators (redistribute/broadcast/gather)
that :mod:`repro.mpp.placement` asks for whenever a join, aggregate, or
distinct is not collocated.  Motion rows
are charged shipping costs on the receiving segments; the simulated
elapsed time of a statement is the per-statement overhead plus the
*maximum* per-segment work — i.e. ideal parallel execution, which is what
the paper's Greenplum numbers approximate.

Motion decisions are made adaptively: the placement rules see actual
intermediate sizes, standing in for Greenplum's statistics-driven
planner.  Every executed
statement records its physical plan (:mod:`repro.mpp.plannodes`) for
EXPLAIN ANALYZE output reproducing the paper's Figure 4.

Execution modes
---------------

The plan walker (:class:`_MPPExecutor`) applies the motions and records
the physical plan; the per-segment work is one command per operator — a
scan, or the operator's step bound once in the master
(:func:`repro.relational.operators.bind_step`) — and one per motion,
sent by :class:`SegmentOps` and executed by the segment interpreter of
:mod:`repro.mpp.segments`.  Serial and pooled execution are that one
interpreter — what differs is where it runs and how its motions
deliver rows:

* ``num_workers=0`` (default): one interpreter in the master process
  owns every segment and reads the tables' shards in place; a motion
  is one sort of the concatenated source parts by target segment and
  one gather per target — deterministic, dependency-free, and what
  tier-1 tests exercise.
* ``num_workers>0``: each process of a persistent pool
  (:mod:`repro.mpp.workers`) is an interpreter over its share of the
  segments, commands are dispatched to all of them in lockstep, and
  motions travel worker-to-worker as per-(source, target) pieces over
  ``multiprocessing`` queues — the only place pieces exist.

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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..relational.columnar import ColumnBatch, distinct_indices
from ..relational.cost import CostClock
from ..relational.expr import resolve_column
from ..relational.operators import bind_step
from ..relational.plan import PlanNode, Scan, bind_scans
from ..relational.schema import TableSchema
from ..relational.table import Table, batch_of_result, batch_of_rows
from ..relational.types import ExecutionError, Result, Row, ensure
from ..relational.verify import verify_plan, verify_plans_enabled
from .distribution import (
    DistributionPolicy,
    HashDistribution,
    RandomDistribution,
    ReplicatedDistribution,
    route,
)
from .placement import (
    Input,
    Move,
    Placement,
    dist_after,
    motion_label,
    operator_label,
    place,
    table_dist,
)
from .plannodes import DistDesc, PhysicalNode
from .segments import SegmentInterpreter
from .workers import WorkerCrashError, WorkerPool

_T = TypeVar("_T")


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

    def column_batch(self) -> ColumnBatch:
        """Every stored row once, in segment order."""
        if isinstance(self.policy, ReplicatedDistribution):
            return self.parts[0].column_batch()
        return ColumnBatch.concat(
            self.schema.column_names, [part.column_batch() for part in self.parts]
        )

    def all_rows(self) -> List[Row]:
        return self.column_batch().to_rows()

    def project(self, column_names: Sequence[str]) -> List[Row]:
        positions = self.schema.positions(column_names)
        return list(self.column_batch().tuples(positions))


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
    """A statement's result, fetched into the master process: one batch
    per segment."""

    __slots__ = ("columns", "parts", "dist")

    def __init__(
        self, columns: List[str], parts: List[ColumnBatch], dist: DistDesc
    ) -> None:
        self.columns = columns
        self.parts = parts
        self.dist = dist

    def gathered(self) -> ColumnBatch:
        """Every result row once, in segment order."""
        if self.dist.kind == "replicated":
            return self.parts[0]
        return ColumnBatch.concat(self.columns, self.parts)


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
    ) -> None:
        ensure(nseg >= 1, ExecutionError, "need at least one segment")
        self.name = name
        self.nseg = nseg
        self.tables: Dict[str, MPPTable] = {}
        self.segment_clocks = [CostClock() for _ in range(nseg)]
        self.master_clock = CostClock()
        #: simulated elapsed seconds (parallel time), accumulated per query
        self.elapsed_seconds = 0.0
        self.last_plan: Optional[PhysicalNode] = None
        #: mirror tables kept in sync with a source table's DML —
        #: how redistributed matviews stay fresh incrementally
        self._mirrors: Dict[str, List[str]] = {}
        #: debug gate: statically verify every distinct plan once before
        #: it executes (switched on by the PROBKB_VERIFY_PLANS env var)
        self.verify_plans = verify_plans_enabled()
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
            # segments run the columnar operators, and only those: the
            # row engine is the differential tests' reference
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
        verify = self.verify_plans and plan not in self._verified_plans
        if verify:
            # pre-execution: the logical tree
            verify_plan(plan, tables=self.tables, name="mpp logical plan") \
                .raise_if_errors()
        shards, node = self._execute_plan(plan)
        if verify:
            # post-execution: the physical trace the executor actually
            # recorded (motions chosen from real sizes)
            self._verify_physical(node)
            self._verified_plans.add(plan)
        return shards, node

    def _verify_physical(self, root: PhysicalNode) -> None:
        from .verify import verify_physical_plan

        table_dists = {
            table_name: table_dist(table.policy)
            for table_name, table in self.tables.items()
        }
        verify_physical_plan(
            root, self.nseg, table_dists=table_dists, name="mpp physical plan"
        ).raise_if_errors()

    def _execute_plan(self, plan: PlanNode) -> Tuple[Shards, PhysicalNode]:
        if self.pool is not None:
            clocks_before = [clock.copy() for clock in self.segment_clocks]
            try:
                return self._interpret(plan)
            except WorkerCrashError as error:
                self._degrade(error)
                for clock, before in zip(self.segment_clocks, clocks_before):
                    clock.reset()
                    clock.merge(before)
            finally:
                self._reset_pool()
        return self._interpret(plan)

    def _interpret(self, plan: PlanNode) -> Tuple[Shards, PhysicalNode]:
        """Plan and run on the pool if there is one, else in-process."""
        executor = _MPPExecutor(self)
        ref, node = executor.exec_plan(plan)
        return executor.ops.localize(ref), node

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

    def _pool_send_shards(self, name: str, shards: List[ColumnBatch]) -> None:
        """Ship per-segment batches to the workers owning them."""
        if self.pool is None:
            return

        def build(worker_id: int, segments: List[int]) -> Tuple:
            payload = {seg: shards[seg] for seg in segments if shards[seg].nrows}
            return ("insert_shards", name, payload)

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
        self._forget_mirrors(table_schema.name)
        self.tables[table_schema.name] = table
        self._pool_send(("create_table", table_schema))
        return table

    def drop_table(self, name: str) -> None:
        self.tables.pop(name, None)
        self._forget_mirrors(name)
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
        Filled here, once; :meth:`add_mirror` keeps it current.
        """
        source = self.table(source_table)
        view_schema = TableSchema(
            name, source.schema.columns, unique_key=source.schema.unique_key
        )
        view = self.create_table(
            view_schema, HashDistribution(key_columns), replace=True
        )
        self._timed_statement(
            lambda: self._load_partitioned(
                view, source.column_batch(), charge_ship=True
            )
        )
        return view

    # -- mirrors (incremental matview maintenance) --------------------------

    def add_mirror(self, source_table: str, mirror_table: str) -> None:
        """Keep ``mirror_table`` synchronized with DML on ``source_table``
        (each mirror has its own distribution — the redistributed
        materialized views of Section 4.4)."""
        self.table(source_table)
        self.table(mirror_table)
        mirrors = self._mirrors.setdefault(source_table, [])
        if mirror_table not in mirrors:
            mirrors.append(mirror_table)

    def _forget_mirrors(self, name: str) -> None:
        """A replaced or dropped table takes its registrations with it,
        as a source and as a mirror: a stale one would feed the new
        table's rows to its views a second time."""
        self._mirrors.pop(name, None)
        for mirrors in self._mirrors.values():
            if name in mirrors:
                mirrors.remove(name)

    def _mirror_insert(self, source_table: str, batch: ColumnBatch) -> None:
        for mirror_name in self._mirrors.get(source_table, ()):
            self._load_partitioned(
                self.table(mirror_name), batch, charge_ship=True
            )

    def _mirror_delete(
        self, source_table: str, column_names: Sequence[str], keys: ColumnBatch
    ) -> None:
        for mirror_name in self._mirrors.get(source_table, ()):
            mirror = self.table(mirror_name)
            for seg, part in enumerate(mirror.parts):
                self.segment_clocks[seg].rows_broadcast += len(keys)
                part.delete_in(column_names, keys)
            self._pool_send(("delete_keys", mirror_name, tuple(column_names), keys))

    # ------------------------------------------------------------------ DML

    def bulkload(self, table_name: str, rows: Sequence[Row]) -> int:
        """COPY-style load: one statement, rows hashed to their segments."""
        table = self.table(table_name)
        return self._timed_statement(
            lambda: self._insert_whole(
                table, batch_of_rows(table.schema, rows), charge_ship=False
            )
        )

    insert_rows = bulkload

    def insert_from(self, table_name: str, plan: PlanNode) -> int:
        """INSERT INTO table SELECT ...: result redistributed to the
        target's distribution, deduplicated per segment."""
        table = self.table(table_name)

        def work() -> int:
            shards, node = self._run_plan(plan)
            self.last_plan = node
            if shards.dist.kind != "replicated":
                return self._insert_shipped(
                    table,
                    [batch_of_result(table.schema, part) for part in shards.parts],
                )
            # every copy of a replicated result is the whole of it
            batch = batch_of_result(table.schema, shards.parts[0])
            return self._insert_whole(table, batch, charge_ship=True)

        return self._timed_statement(work)

    def insert_from_with_ids(
        self,
        table_name: str,
        plan: PlanNode,
        next_id: int,
        pad_nulls: int = 0,
    ) -> Tuple[int, int]:
        """INSERT ... SELECT with a leading sequence column: the
        result is localized on the master, which stamps ids segment by
        segment from one sequence, then the batches ship to their home
        segments.  Returns (inserted, next sequence value)."""
        table = self.table(table_name)

        def work() -> Tuple[int, int]:
            shards, node = self._run_plan(plan)
            self.last_plan = node
            sequence = next_id
            stamped = []
            # every copy of a replicated result is the whole of it
            replicated = shards.dist.kind == "replicated"
            for part in shards.parts[:1] if replicated else shards.parts:
                stamped.append(
                    batch_of_result(table.schema, part, sequence, pad_nulls)
                )
                sequence += part.nrows
            return self._insert_shipped(table, stamped), sequence

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
            keys = shards.gathered()
            keys = keys.gather(distinct_indices(keys))  # IN (...) is a set
            self.master_clock.rows_shipped += len(keys)
            removed = []
            for seg, part in enumerate(table.parts):
                self.segment_clocks[seg].rows_broadcast += len(keys)
                removed.append(part.delete_in(column_names, keys))
            self._pool_send(("delete_keys", table_name, tuple(column_names), keys))
            self._mirror_delete(table_name, column_names, keys)
            if isinstance(table.policy, ReplicatedDistribution):
                return removed[0]  # every copy lost the same rows
            return sum(removed)

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
            rows = shards.gathered().to_rows()
            self.master_clock.rows_shipped += len(rows)
            gather = PhysicalNode("Gather Motion", rows=len(rows))
            gather.dist = DistDesc.arbitrary()
            gather.children.append(node)
            self.last_plan = gather
            return Result(shards.columns, rows)

        return self._timed_statement(work)

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

    def _insert_shipped(
        self, table: MPPTable, source_parts: Sequence[ColumnBatch]
    ) -> int:
        """Validate a statement's result once, whole; then ship every
        row from the segment it sits on (its batch's index in
        ``source_parts``) to its home segment(s) in ``table``, charging
        the receivers; then insert, and feed the mirrors the same rows.
        A replicated target receives every row on every segment — a
        broadcast."""
        columns = table.schema.column_names
        batch = ColumnBatch.concat(columns, source_parts)
        table.schema.validate_batch(batch)
        sizes = [part.nrows for part in source_parts]
        incoming, counts = route(batch, sizes, table.policy, table.key_positions, self.nseg)
        replicated = isinstance(table.policy, ReplicatedDistribution)
        for target, clock in enumerate(self.segment_clocks):
            shipped = sum(n for seg, n in enumerate(counts[target]) if seg != target)
            if replicated:
                clock.rows_broadcast += shipped
            else:
                clock.rows_shipped += shipped
        inserted = self._store_shards(table, incoming)
        if self._mirrors.get(table.name):
            self._mirror_insert(
                table.name,
                incoming[0] if replicated else ColumnBatch.concat(columns, incoming),
            )
        return inserted

    def _insert_whole(
        self, table: MPPTable, batch: ColumnBatch, charge_ship: bool
    ) -> int:
        """Validate, then insert, a statement's rows that sit on no
        segment yet (client rows, a replicated result), and feed the
        mirrors the same rows."""
        table.schema.validate_batch(batch)
        stored = self._load_partitioned(table, batch, charge_ship)
        self._mirror_insert(table.name, batch)
        return stored

    def _load_partitioned(
        self, table: MPPTable, batch: ColumnBatch, charge_ship: bool
    ) -> int:
        shards, _ = route(
            batch, [batch.nrows], table.policy, table.key_positions, self.nseg
        )
        if charge_ship:
            for clock, shard in zip(self.segment_clocks, shards):
                clock.rows_shipped += shard.nrows
        return self._store_shards(table, shards)

    def _store_shards(self, table: MPPTable, shards: List[ColumnBatch]) -> int:
        """Append per-segment batches, which their statement already
        validated, to the table's shards (and the pool's copies of
        them); returns the rows actually stored, once per row for a
        replicated table."""
        inserted = stored = 0
        for seg, shard in enumerate(shards):
            stored = table.parts[seg].insert_batch(shard, validate=False)
            self.segment_clocks[seg].rows_inserted += stored
            inserted += stored
        self._pool_send_shards(table.name, shards)
        if isinstance(table.policy, ReplicatedDistribution):
            return stored  # every copy stored the same rows
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
    """Commands dispatched to the segment interpreter(s): every worker
    of the cluster's pool, or — with no pool — one in-process
    interpreter that owns all segments and reads the master's table
    shards in place.

    :meth:`run` sends a scan or a bound operator step, :meth:`move` a
    motion; each returns a :class:`FrameRef` and the rows stay with the
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
            )
            self._dispatch = lambda command: {0: local.execute(command)}
            self._next_epoch = itertools.count(1).__next__

    def run(
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

    def move(self, source: FrameRef, move: Move) -> FrameRef:
        """Apply one motion :func:`~repro.mpp.placement.place` chose."""
        args: Tuple = (source.handle,)
        if move[0] == "redistribute":
            args += ([resolve_column(key, source.columns) for key in move[1]],)
        args += (self._next_epoch(), source.dist.kind == "replicated")
        return self.run(move[0], args, source.columns, dist_after(move))

    def localize(self, ref: FrameRef) -> Shards:
        """Fetch a frame's batches into the master process."""
        replicated = ref.dist.kind == "replicated"
        command = ("fetch", ref.handle, (0,) if replicated else None)
        fetched: Dict[int, ColumnBatch] = {}
        for payload in self._dispatch(command).values():
            fetched.update(payload["batches"])
        # a replicated frame is full copies everywhere: share segment 0's
        parts = [fetched[0 if replicated else seg] for seg in range(self.nseg)]
        return Shards(ref.columns, parts, ref.dist)


class _MPPExecutor:
    """Plan walker over distributed frames.

    :func:`repro.mpp.placement.place` decides the motions, from the
    frames' actual sizes, and which operators run once;
    :func:`repro.relational.operators.bind_step` binds each operator.
    This class applies the motions, records the physical plan, and
    sends the per-segment work through :class:`SegmentOps` to the
    segment interpreter(s) — in-process, or the cluster's pool."""

    def __init__(self, cluster: MPPDatabase) -> None:
        self.cluster = cluster
        self.nseg = cluster.nseg
        self.clocks = cluster.segment_clocks
        self.ops = SegmentOps(cluster)

    def exec_plan(self, plan: PlanNode) -> Tuple[FrameRef, PhysicalNode]:
        bind_scans(plan, self.cluster.tables)
        return self._exec(plan)

    def _timed(self, node: PhysicalNode, work: Callable[[], FrameRef]) -> FrameRef:
        before = [clock.seconds for clock in self.clocks]
        shards = work()
        node.seconds = max(
            clock.seconds - b for clock, b in zip(self.clocks, before)
        )
        node.rows = shards.total_rows
        node.dist = shards.dist
        return shards

    def _exec(self, plan: PlanNode) -> Tuple[FrameRef, PhysicalNode]:
        if isinstance(plan, Scan):
            columns = plan.output_columns
            dist = table_dist(self.cluster.table(plan.table_name).policy, plan.alias)
            node = PhysicalNode(*operator_label(plan, []))
            args = (plan.table_name, columns)
            return self._timed(node, lambda: self.ops.run("scan", args, columns, dist)), node
        frames, nodes, placement = self._placed(plan)
        inputs = [frame.columns for frame in frames]
        step = bind_step(plan, inputs)
        node = PhysicalNode(*operator_label(plan, inputs))
        node.children.extend(nodes)
        args = (step, [frame.handle for frame in frames], placement.once)
        ref = self._timed(
            node, lambda: self.ops.run("step", args, step.columns, placement.out_dist)
        )
        return ref, node

    def _placed(
        self, plan: PlanNode
    ) -> Tuple[List[FrameRef], List[PhysicalNode], Placement]:
        """Execute the children, then move them where the placement
        rules want them given their actual sizes.  Returns the (possibly
        moved) frames, their (possibly motion-wrapped) plan nodes, and
        the placement."""
        results = [self._exec(child) for child in plan.children]
        placement = place(
            plan,
            [Input(ref.columns, ref.dist, ref.total_rows) for ref, _ in results],
            self.nseg,
        )
        frames: List[FrameRef] = []
        nodes: List[PhysicalNode] = []
        for (frame, node), move in zip(results, placement.moves):
            if move is not None:
                frame, node = self._move(frame, node, move)
            frames.append(frame)
            nodes.append(node)
        return frames, nodes, placement

    def _move(
        self, frame: FrameRef, child_node: PhysicalNode, move: Move
    ) -> Tuple[FrameRef, PhysicalNode]:
        node = PhysicalNode(*motion_label(move))
        node.children.append(child_node)
        return self._timed(node, lambda: self.ops.move(frame, move)), node
