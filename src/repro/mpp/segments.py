"""The segment-local plan interpreter: one implementation, two hosts.

A :class:`SegmentInterpreter` owns some of the cluster's segments and
executes the physical operators the planner sends it, one command per
operator, over those segments' shards.  Intermediate results stay
inside it as *frames* — one :class:`~repro.relational.columnar.ColumnBatch`
per owned segment, keyed by a planner-assigned handle.  It knows six
commands: a scan, a *step* — any other operator, bound once by the
planner (:func:`repro.relational.operators.bind_step`) and run here
as it is on a single node — the three motions, and fetch / reset.
Every command is charged to a per-segment clock delta that rides back
on its reply.

The same class runs in both execution modes; what differs is who owns
which segments and the *exchange* that motions move pieces through:

* serial (``num_workers=0``): one interpreter in the master process
  owns all ``nseg`` segments, reads the master's table shards directly
  and exchanges pieces through a :class:`LocalExchange` — no queues, no
  pickling, no second copy of the tables;
* pooled: each worker process (:mod:`repro.mpp.workers`) is an
  interpreter over its own segments and shard copies, exchanging
  pickled pieces over ``multiprocessing`` queues.

Motions assemble incoming pieces in ascending source-segment order on
either exchange, so rows, shard placement and clocks are bit-identical
across the two modes.  This module is a deterministic kernel (RC003):
exchange deadlines and everything else that reads a wall clock live
with the queue exchange in :mod:`repro.mpp.workers`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from ..relational import operators
from ..relational.columnar import ColumnBatch
from ..relational.cost import CostClock
from ..relational.table import Table
from .distribution import HashDistribution, partition_parts

__all__ = ["Exchange", "LocalExchange", "SegmentInterpreter"]

#: one segment-to-segment hop of a motion: ``(from_seg, to_seg)``
Hop = Tuple[int, int]
#: an intermediate result: owned segment -> its batch
Frame = Dict[int, ColumnBatch]


class Exchange(Protocol):
    """How a motion's pieces travel between segments."""

    def send(self, epoch: int, from_seg: int, to_seg: int, piece: ColumnBatch) -> None:
        """Ship one piece towards ``to_seg``'s owner."""

    def collect(self, epoch: int, expected: Set[Hop]) -> Dict[Hop, ColumnBatch]:
        """Receive this epoch's piece for every expected hop."""


class LocalExchange:
    """In-process exchange for an interpreter that owns every segment:
    all of a motion's sends complete before its collect starts."""

    def __init__(self) -> None:
        self._pieces: Dict[Tuple[int, int, int], ColumnBatch] = {}

    def send(self, epoch: int, from_seg: int, to_seg: int, piece: ColumnBatch) -> None:
        self._pieces[(epoch, from_seg, to_seg)] = piece

    def collect(self, epoch: int, expected: Set[Hop]) -> Dict[Hop, ColumnBatch]:
        return {hop: self._pieces.pop((epoch, *hop)) for hop in expected}


#: a redistribute motion hashes on key *positions*; the policy's column
#: names only matter to the catalog
_BY_HASH = HashDistribution(())


class SegmentInterpreter:
    """Executes operator commands over the segments it owns.

    ``shard_of(table_name, seg)`` resolves a stored table shard.  Every
    command returns its reply payload: per-segment output row counts
    and clock deltas."""

    def __init__(
        self,
        segments: Iterable[int],
        nseg: int,
        shard_of: Callable[[str, int], Table],
        exchange: Exchange,
    ) -> None:
        self.segments = list(segments)
        self.nseg = nseg
        self.shard_of = shard_of
        self.exchange = exchange
        self.owns_first = 0 in self.segments
        #: intermediate handle -> frame
        self.frames: Dict[int, Frame] = {}

    def execute(self, command: Tuple) -> dict:
        handler = getattr(self, "_cmd_" + command[0])
        return handler(*command[1:])

    # -- helpers -------------------------------------------------------------

    def _fresh_clocks(self) -> Dict[int, CostClock]:
        return {seg: CostClock() for seg in self.segments}

    def _store(self, handle: int, frame: Frame, deltas: Dict[int, CostClock]) -> dict:
        self.frames[handle] = frame
        counts = {seg: batch.nrows for seg, batch in frame.items()}
        return {"counts": counts, "deltas": deltas}

    def _columns(self, handle: int) -> List[str]:
        return self.frames[handle][self.segments[0]].columns

    def _each(
        self, handle: int, work: Callable[[int, CostClock], ColumnBatch]
    ) -> dict:
        """Store ``work(seg, clock)`` of every owned segment."""
        deltas = self._fresh_clocks()
        frame = {seg: work(seg, deltas[seg]) for seg in self.segments}
        return self._store(handle, frame, deltas)

    def _first(
        self,
        handle: int,
        columns: Sequence[str],
        work: Callable[[int, CostClock], ColumnBatch],
    ) -> dict:
        """Store ``work(0, clock)`` on segment 0 and empty batches under
        ``columns`` elsewhere: an operator over gathered or fully
        replicated input runs once, not once per copy."""
        deltas = self._fresh_clocks()
        frame = {seg: ColumnBatch.from_rows(columns, ()) for seg in self.segments}
        if self.owns_first:
            frame[0] = work(0, deltas[0])
        return self._store(handle, frame, deltas)

    # -- operators -----------------------------------------------------------

    def _cmd_scan(self, handle: int, table_name: str, columns: List[str]) -> dict:
        return self._each(
            handle,
            lambda seg, clock: operators.scan_table(
                self.shard_of(table_name, seg), columns, clock
            ),
        )

    def _cmd_step(
        self,
        handle: int,
        step: operators.Step,
        sources: Sequence[int],
        once: Sequence[bool],
    ) -> dict:
        """Run a bound operator (:func:`repro.relational.operators.bind_step`)
        over the ``sources`` frames.  ``once`` is placement's run-once
        rule, per input: off segment 0 an input that counts once
        contributes nothing, and when every input counts once — or there
        is none — the operator computes on segment 0 alone."""
        frames = [self.frames[source] for source in sources]
        elsewhere = [frame for frame, first in zip(frames, once) if not first]

        def work(seg: int, clock: CostClock) -> ColumnBatch:
            return step.run([frame[seg] for frame in (elsewhere if seg else frames)], clock)

        if all(once):
            return self._first(handle, step.columns, work)
        return self._each(handle, work)

    # -- motions -------------------------------------------------------------

    def _assemble(
        self,
        handle: int,
        source: int,
        epoch: int,
        sources: Sequence[int],
        targets: Sequence[int],
        counter: str,
    ) -> dict:
        """Receiving half of a motion: every owned target segment
        appends its pieces in ascending source-segment order (the order
        that keeps serial and pooled runs bit-identical) and charges
        ``counter`` for the rows that crossed segments."""
        columns = self._columns(source)
        owned = [seg for seg in targets if seg in self.segments]
        got = self.exchange.collect(
            epoch, {(from_seg, seg) for from_seg in sources for seg in owned}
        )
        deltas = self._fresh_clocks()
        frame = {seg: ColumnBatch.from_rows(columns, ()) for seg in self.segments}
        for seg in owned:
            pieces = [got[(from_seg, seg)] for from_seg in sources]
            frame[seg] = ColumnBatch.concat(columns, pieces)
            shipped = sum(
                piece.nrows for from_seg, piece in zip(sources, pieces) if from_seg != seg
            )
            setattr(deltas[seg], counter, shipped)
        return self._store(handle, frame, deltas)

    def _cmd_redistribute(
        self,
        handle: int,
        source: int,
        positions: List[int],
        epoch: int,
        source_replicated: bool,
    ) -> dict:
        # every copy of a replicated frame is the whole relation:
        # segment 0 alone sends it
        sources = (0,) if source_replicated else range(self.nseg)
        owned = [seg for seg in self.segments if seg in sources]
        parts = [self.frames[source][seg] for seg in owned]
        pieces = partition_parts(parts, _BY_HASH, positions, self.nseg)
        for seg, row in zip(owned, pieces):
            for target, piece in enumerate(row):
                self.exchange.send(epoch, seg, target, piece)
        return self._assemble(
            handle, source, epoch, sources, range(self.nseg), "rows_shipped"
        )

    def _cmd_broadcast(
        self, handle: int, source: int, epoch: int, source_replicated: bool
    ) -> dict:
        if source_replicated:
            # every segment already holds a full copy
            return self._store(handle, dict(self.frames[source]), self._fresh_clocks())
        for seg in self.segments:
            for target in range(self.nseg):
                self.exchange.send(epoch, seg, target, self.frames[source][seg])
        return self._assemble(
            handle, source, epoch, range(self.nseg), range(self.nseg), "rows_broadcast"
        )

    def _cmd_gather(
        self, handle: int, source: int, epoch: int, source_replicated: bool
    ) -> dict:
        if source_replicated:
            child = self.frames[source]
            return self._first(handle, self._columns(source), lambda seg, _clock: child[seg])
        for seg in self.segments:
            self.exchange.send(epoch, seg, 0, self.frames[source][seg])
        return self._assemble(
            handle, source, epoch, range(self.nseg), (0,), "rows_shipped"
        )

    # -- result fetch / cleanup ----------------------------------------------

    def _cmd_fetch(self, handle: int, segments: Optional[Sequence[int]]) -> dict:
        """The frame's batches on the owned ``segments`` (None = all)."""
        frame = self.frames[handle]
        wanted = self.segments if segments is None else segments
        return {"batches": {seg: frame[seg] for seg in wanted if seg in frame}}

    def _cmd_reset(self) -> dict:
        self.frames.clear()
        return {}
