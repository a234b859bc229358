"""The segment-local plan interpreter: one implementation, two hosts.

A :class:`SegmentInterpreter` owns some of the cluster's segments and
executes the physical operators the planner sends it, one command per
operator, over those segments' shards.  Intermediate results stay
inside it as *frames* — one :class:`~repro.relational.columnar.ColumnBatch`
per owned segment, keyed by a planner-assigned handle; each has one
consumer, which drops it.  It knows six commands: a scan, a *step* —
any other operator, bound once by the planner
(:func:`repro.relational.operators.bind_step`) and run here as it is
on a single node — the three motions, and fetch / reset.  Every
command is charged to a per-segment clock delta that rides back on
its reply.

A motion is one :func:`~repro.mpp.distribution.route` over the owned
source parts, concatenated: one stable sort by target segment, after
which each target's rows are one run, in ascending source order.  The
same class runs in both execution modes; what differs is who owns
which segments:

* serial (``num_workers=0``): one interpreter in the master process
  owns all ``nseg`` segments and reads the master's table shards
  directly; each run *is* its target's new part;
* pooled: each worker process (:mod:`repro.mpp.workers`) is an
  interpreter over its own segments and shard copies; it cuts its runs
  into per-(source, target) pieces — the only place pieces exist —
  ships them over an :class:`Exchange` and appends the pieces it
  receives in ascending source order.

So rows, shard placement and clocks are bit-identical across the two
modes.  This module is a deterministic kernel (RC003): exchange
deadlines and everything else that reads a wall clock live with the
queue exchange in :mod:`repro.mpp.workers`.
"""

from __future__ import annotations

import itertools
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
from .distribution import (
    DistributionPolicy,
    HashDistribution,
    ReplicatedDistribution,
    route,
)

__all__ = ["Exchange", "SegmentInterpreter"]

#: one segment-to-segment hop of a motion: ``(from_seg, to_seg)``
Hop = Tuple[int, int]
#: an intermediate result: owned segment -> its batch
Frame = Dict[int, ColumnBatch]


class Exchange(Protocol):
    """How a pool worker's motion pieces travel between segments."""

    def send(self, epoch: int, from_seg: int, to_seg: int, piece: ColumnBatch) -> None:
        """Ship one piece towards ``to_seg``'s owner."""

    def collect(self, epoch: int, expected: Set[Hop]) -> Dict[Hop, ColumnBatch]:
        """Receive this epoch's piece for every expected hop."""


#: a redistribute motion hashes on key *positions*; the policy's column
#: names only matter to the catalog
_BY_HASH = HashDistribution(())
_EVERYWHERE = ReplicatedDistribution()


class SegmentInterpreter:
    """Executes operator commands over the segments it owns.

    ``shard_of(table_name, seg)`` resolves a stored table shard.  An
    interpreter with no ``exchange`` owns every segment.  Every command
    returns its reply payload: per-segment output row counts and clock
    deltas."""

    def __init__(
        self,
        segments: Iterable[int],
        nseg: int,
        shard_of: Callable[[str, int], Table],
        exchange: Optional[Exchange] = None,
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
        frames = [self.frames.pop(source) for source in sources]
        elsewhere = [frame for frame, first in zip(frames, once) if not first]

        def work(seg: int, clock: CostClock) -> ColumnBatch:
            return step.run([frame[seg] for frame in (elsewhere if seg else frames)], clock)

        if all(once):
            return self._first(handle, step.columns, work)
        return self._each(handle, work)

    # -- motions -------------------------------------------------------------

    def _move(
        self,
        handle: int,
        source: int,
        epoch: int,
        sources: Sequence[int],
        ntargets: int,
        policy: DistributionPolicy,
        positions: Sequence[int],
        counter: str,
    ) -> dict:
        """Route the ``source`` frame's parts on the ``sources`` segments
        to segments ``0 .. ntargets - 1`` and charge each target's
        ``counter`` for the rows that came from another segment."""
        frame = self.frames.pop(source)
        columns = frame[self.segments[0]].columns
        owned = [seg for seg in sources if seg in self.segments]
        parts = [frame[seg] for seg in owned]
        sizes = [part.nrows for part in parts]
        runs, counts = route(ColumnBatch.concat(columns, parts), sizes, policy, positions, ntargets)
        targets = [seg for seg in range(ntargets) if seg in self.segments]
        if self.exchange is None:  # every segment is here: a run is its new part
            arrived = {target: (runs[target], counts[target]) for target in targets}
        else:  # a pool worker trades pieces cut from its runs
            for target, run in enumerate(runs):
                bounds = [0, *itertools.accumulate(counts[target])]
                for seg, lo, hi in zip(owned, bounds, bounds[1:]):
                    self.exchange.send(epoch, seg, target, run.gather(range(lo, hi)))
            got = self.exchange.collect(
                epoch, {(seg, target) for seg in sources for target in targets}
            )
            arrived = {}
            for target in targets:
                pieces = [got[(seg, target)] for seg in sources]
                arrived[target] = (
                    ColumnBatch.concat(columns, pieces), [piece.nrows for piece in pieces]
                )
        deltas = self._fresh_clocks()
        out = {seg: ColumnBatch.from_rows(columns, ()) for seg in self.segments}
        for target, (rows, received) in arrived.items():
            out[target] = rows
            shipped = sum(n for seg, n in zip(sources, received) if seg != target)
            setattr(deltas[target], counter, shipped)
        return self._store(handle, out, deltas)

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
        return self._move(
            handle, source, epoch, sources, self.nseg, _BY_HASH, positions, "rows_shipped"
        )

    def _cmd_broadcast(
        self, handle: int, source: int, epoch: int, source_replicated: bool
    ) -> dict:
        if source_replicated:
            # every segment already holds a full copy
            return self._store(handle, self.frames.pop(source), self._fresh_clocks())
        return self._move(
            handle, source, epoch, range(self.nseg), self.nseg, _EVERYWHERE, (),
            "rows_broadcast",
        )

    def _cmd_gather(
        self, handle: int, source: int, epoch: int, source_replicated: bool
    ) -> dict:
        if source_replicated:
            child = self.frames.pop(source)
            columns = child[self.segments[0]].columns
            return self._first(handle, columns, lambda seg, _clock: child[seg])
        # segment 0 is the one target
        return self._move(
            handle, source, epoch, range(self.nseg), 1, _EVERYWHERE, (), "rows_shipped"
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
