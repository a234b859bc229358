"""Worker processes for the multi-process MPP executor.

Architecture (paper Figure 4: master + shared-nothing segment hosts)::

    master (planner, authoritative shards)        worker k (segments k, k+W, ...)
    --------------------------------------        --------------------------------
    SegmentOps.run ──── command queue k ────────▶ run the scan / bound step
                                                  on each owned segment
                                                  (repro.mpp.segments)
                   ◀─── shared reply queue ────── ack {row counts, clock deltas}
    motions:            workers exchange pickled column batches directly over
                        per-worker inbox queues, tagged with a motion epoch

A :class:`WorkerPool` is spawned once per :class:`~repro.mpp.cluster.MPPDatabase`
and persists across statements.  Each worker owns ``seg % num_workers``
segments and keeps a private :class:`~repro.relational.table.Table` copy
of every segment shard it owns; the master mirrors all DML into the pool
(``insert_shards`` / ``delete_keys`` / ``truncate``),
so worker state is always derivable from the master's — which is what
makes crash recovery a pure retry.

Determinism: a worker *is* the serial executor's
:class:`~repro.mpp.segments.SegmentInterpreter`, over fewer segments
and behind a :class:`QueueExchange`.  It routes its owned source parts
as the serial interpreter routes all of them, cuts each target's run
into per-source pieces, and appends the pieces a target receives in
ascending source-segment order — the order of the serial run — and
all cost-clock charges for query operators ride back on the acks into
the master's per-segment clocks.  A pooled run
therefore produces bit-identical tables, query results, and modelled
times to a serial run.

Commands are dispatched in lockstep: every worker acknowledges every
command before the next is sent, so a reply mismatch, a dead process,
or a timeout all surface as :class:`WorkerCrashError` — the signal for
the database to degrade to its serial executor.
"""

from __future__ import annotations

import multiprocessing
import queue
import signal
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..relational.columnar import ColumnBatch
from ..relational.schema import TableSchema
from ..relational.table import Table
from .segments import Hop, SegmentInterpreter

__all__ = ["WorkerCrashError", "WorkerPool", "QueueExchange"]

#: how often blocked queue reads wake up to re-check liveness/deadlines
_POLL_S = 0.05
#: how long a worker waits on a motion exchange before giving up
_EXCHANGE_TIMEOUT_S = 120.0


class WorkerCrashError(RuntimeError):
    """The worker pool died, errored, or stopped responding."""


# ---------------------------------------------------------------------- pool


class WorkerPool:
    """A persistent pool of segment-executor processes."""

    def __init__(
        self,
        nseg: int,
        num_workers: int,
        reply_timeout: float = 60.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1 (0 means serial mode)")
        self.nseg = nseg
        self.num_workers = min(int(num_workers), nseg)
        self.reply_timeout = reply_timeout
        # fork keeps spawn latency negligible; spawn is the portable fallback
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        #: segment -> owning worker id
        self.seg_worker: Tuple[int, ...] = tuple(
            seg % self.num_workers for seg in range(nseg)
        )
        self.command_queues = [context.Queue() for _ in range(self.num_workers)]
        self.reply_queue = context.Queue()
        self.exchange_queues = [context.Queue() for _ in range(self.num_workers)]
        self._seq = 0
        self._epoch = 0
        self._closed = False
        self.processes = []
        # Forked children inherit the parent's SIGINT disposition, and a
        # Ctrl-C aimed at the master reaches the whole process group —
        # ignore it around the fork so workers are never interruptible,
        # even during bootstrap (workers re-ignore it themselves for the
        # spawn start method, where dispositions reset).
        restore_sigint = None
        if threading.current_thread() is threading.main_thread():
            restore_sigint = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            for worker_id in range(self.num_workers):
                process = context.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        self.segments_of(worker_id),
                        nseg,
                        self.seg_worker,
                        self.command_queues[worker_id],
                        self.reply_queue,
                        self.exchange_queues,
                    ),
                    name=f"repro-mpp-worker-{worker_id}",
                    daemon=True,
                )
                process.start()
                self.processes.append(process)
        finally:
            if restore_sigint is not None:
                signal.signal(signal.SIGINT, restore_sigint)

    def segments_of(self, worker_id: int) -> List[int]:
        return [
            seg for seg in range(self.nseg) if self.seg_worker[seg] == worker_id
        ]

    def next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    # -- lockstep dispatch ---------------------------------------------------

    def dispatch(
        self,
        command: Optional[Tuple] = None,
        per_worker: Optional[Callable[[int, List[int]], Tuple]] = None,
    ) -> Dict[int, dict]:
        """Send one command to every worker and collect every ack.

        Returns ``{worker_id: payload}``.  Any worker error, death, or
        timeout raises :class:`WorkerCrashError` (a worker-side failure
        can leave peers blocked inside a motion, so the pool is not
        reusable after one — the database degrades and retries
        serially)."""
        if self._closed:
            raise WorkerCrashError("worker pool is closed")
        self._seq += 1
        seq = self._seq
        try:
            for worker_id, command_queue in enumerate(self.command_queues):
                message = (
                    command
                    if per_worker is None
                    else per_worker(worker_id, self.segments_of(worker_id))
                )
                command_queue.put((seq, message))
        except (OSError, ValueError) as error:
            raise WorkerCrashError(f"worker pool unusable: {error}") from error
        payloads: Dict[int, dict] = {}
        deadline = time.monotonic() + self.reply_timeout
        while len(payloads) < self.num_workers:
            try:
                worker_id, reply_seq, status, payload = self.reply_queue.get(
                    timeout=_POLL_S
                )
            except queue.Empty:
                self._ensure_alive()
                if time.monotonic() > deadline:
                    raise WorkerCrashError(
                        "worker pool stopped responding "
                        f"(waited {self.reply_timeout:.0f}s)"
                    )
                continue
            if reply_seq != seq:
                continue  # stale ack from an aborted statement
            if status != "ok":
                raise WorkerCrashError(f"worker {worker_id} failed: {payload}")
            payloads[worker_id] = payload
        return payloads

    def _ensure_alive(self) -> None:
        for worker_id, process in enumerate(self.processes):
            if not process.is_alive():
                raise WorkerCrashError(
                    f"worker {worker_id} died (exit code {process.exitcode})"
                )

    def ping(self) -> bool:
        """Round-trip a no-op through every worker (liveness check)."""
        self.dispatch(("ping",))
        return True

    def reset_intermediates(self) -> None:
        """Drop worker-side intermediate frames between statements."""
        self.dispatch(("reset",))

    # -- shutdown ------------------------------------------------------------

    def close(self, force: bool = False) -> None:
        """Stop all workers; ``force`` skips the polite shutdown round."""
        if self._closed:
            self._terminate()
            return
        self._closed = True
        if not force:
            self._seq += 1
            for command_queue in self.command_queues:
                try:
                    command_queue.put((self._seq, ("shutdown",)))
                except (OSError, ValueError):
                    pass
            for process in self.processes:
                process.join(timeout=2.0)
        self._terminate()
        for mp_queue in (
            *self.command_queues,
            self.reply_queue,
            *self.exchange_queues,
        ):
            mp_queue.close()
            mp_queue.cancel_join_thread()

    def _terminate(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=2.0)


# ---------------------------------------------------------------------- worker


class QueueExchange:
    """Motion exchange between worker processes: pieces travel pickled
    over the per-worker inbox queues, addressed by target segment."""

    def __init__(
        self, queues: Sequence[Any], seg_worker: Sequence[int], worker_id: int
    ) -> None:
        self.queues = queues
        self.seg_worker = seg_worker
        self.inbox = queues[worker_id]

    def send(self, epoch: int, from_seg: int, to_seg: int, piece: ColumnBatch) -> None:
        self.queues[self.seg_worker[to_seg]].put((epoch, from_seg, to_seg, piece))

    def collect(self, epoch: int, expected: Set[Hop]) -> Dict[Hop, ColumnBatch]:
        """Pull this epoch's expected pieces off the inbox, dropping
        leftovers from aborted statements."""
        waiting = set(expected)
        got: Dict[Hop, ColumnBatch] = {}
        deadline = time.monotonic() + _EXCHANGE_TIMEOUT_S
        while waiting:
            try:
                message = self.inbox.get(timeout=_POLL_S)
            except queue.Empty:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"motion epoch {epoch} timed out waiting for {waiting}"
                    )
                continue
            msg_epoch, from_seg, to_seg, piece = message
            if msg_epoch != epoch:
                continue  # stale piece from an aborted statement
            got[(from_seg, to_seg)] = piece
            waiting.discard((from_seg, to_seg))
        return got


class _WorkerState(SegmentInterpreter):
    """Everything one worker process owns: the segment interpreter over
    its segments' table shards, plus what only a pool member needs —
    the mirrored-DML commands."""

    def __init__(
        self,
        worker_id: int,
        segments: List[int],
        nseg: int,
        seg_worker: Sequence[int],
        exchange_queues: Sequence,
    ) -> None:
        #: table name -> segment -> shard
        self.tables: Dict[str, Dict[int, Table]] = {}
        super().__init__(
            segments,
            nseg,
            lambda name, seg: self.tables[name][seg],
            QueueExchange(exchange_queues, seg_worker, worker_id),
        )

    def _cmd_ping(self) -> dict:
        return {}

    # -- DML mirroring -------------------------------------------------------

    def _cmd_create_table(self, table_schema: TableSchema) -> dict:
        self.tables[table_schema.name] = {
            seg: Table(table_schema) for seg in self.segments
        }
        return {}

    def _cmd_drop_table(self, name: str) -> dict:
        self.tables.pop(name, None)
        return {}

    def _cmd_truncate(self, name: str) -> dict:
        for shard in self.tables[name].values():
            shard.truncate()
        return {}

    def _cmd_insert_shards(
        self, name: str, shard_map: Dict[int, ColumnBatch]
    ) -> dict:
        shards = self.tables[name]
        for seg, batch in shard_map.items():
            # the master validated the statement before shipping it
            shards[seg].insert_batch(batch, validate=False)
        return {}

    def _cmd_delete_keys(
        self, name: str, column_names: Tuple[str, ...], keys: ColumnBatch
    ) -> dict:
        for shard in self.tables[name].values():
            shard.delete_in(column_names, keys)
        return {}


def _worker_main(
    worker_id: int,
    segments: List[int],
    nseg: int,
    seg_worker: Sequence[int],
    command_queue: Any,
    reply_queue: Any,
    exchange_queues: Sequence[Any],
) -> None:
    """Entry point of one worker process: a command loop in lockstep
    with the master.  Every command gets exactly one ack."""
    # Ctrl-C reaches the whole process group; only the master decides
    # when workers stop (via the shutdown command or terminate()),
    # otherwise an interactive interrupt kills the pool mid-statement.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    state = _WorkerState(worker_id, segments, nseg, seg_worker, exchange_queues)
    while True:
        try:
            # the master owns this process's lifetime (shutdown command)
            seq, command = command_queue.get()  # lint: disable=RC004
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if command[0] == "shutdown":
            try:
                reply_queue.put((worker_id, seq, "ok", {}))
            except (OSError, ValueError):
                pass
            return
        try:
            payload = state.execute(command)
            reply_queue.put((worker_id, seq, "ok", payload))
        except BaseException as error:  # forwarded to the master
            try:
                reply_queue.put(
                    (worker_id, seq, "error", f"{type(error).__name__}: {error}")
                )
            except (OSError, ValueError):
                return
