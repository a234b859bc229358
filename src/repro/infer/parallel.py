"""Color-parallel Gibbs sampling on the persistent worker pool.

The paper hands TΦ to GraphLab's *parallel* chromatic Gibbs sampler;
this module is that role on our own infrastructure.  It reuses the
:class:`~repro.mpp.workers.WorkerPool` via the generic task protocol
(``("task", "module:attr", payload)``) and parallelises along two axes:

- **Across components.**  Marginals factorise over connected
  components, so whole components are independent jobs.  The shard
  planner packs small components into per-worker batches balanced by
  estimated cost.
- **Within big components.**  A component too large for one worker is
  sharded: every worker owns a contiguous range of the component's
  dense variable indexes and all workers sweep it together, one colour
  class at a time, with a barrier per colour — each worker ships the
  boundary states its peers need over the pool's exchange queues, then
  waits for theirs (Gonzalez et al., AISTATS'11).

Determinism contract: marginals are **bit-identical** to the serial
sampler at a fixed seed regardless of ``num_workers``.  Two properties
make this free rather than hard:

1. Every draw in :meth:`~repro.infer.gibbs.GibbsSampler.run_stream`
   is a pure function of ``(component seed, sweep, color, var)`` —
   no shared RNG stream to serialise.
2. :func:`~repro.infer.components.build_component_graph` is canonical,
   so every process derives the same dense indexing and colouring from
   a component's content alone.

Crash handling mirrors the MPP executor: any
:class:`~repro.mpp.workers.WorkerCrashError` degrades the driver to
serial in-process sampling (same marginals, one ``RuntimeWarning``),
and it stays degraded until :meth:`ParallelGibbsDriver.reset`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mpp.workers import WorkerCrashError, WorkerPool, _WorkerState
from .components import (
    ComponentSnapshot,
    build_component_graph,
    component_seed,
    sample_serially,
)
from .gibbs import GibbsSampler

#: components with at least this many variables are sharded across the
#: whole pool instead of sampled by a single worker
DEFAULT_SHARD_THRESHOLD = 512

_BATCH_TASK = "repro.infer.parallel:_task_sample_batch"
_SHARD_TASK = "repro.infer.parallel:_task_sample_shards"


# ------------------------------------------------------------------ planning


@dataclass
class ShardPlan:
    """How a batch of component snapshots maps onto the pool.

    ``batches[w]`` holds the snapshot indexes worker ``w`` samples
    whole; ``sharded`` holds the indexes of components big enough to be
    swept by all workers together, in anchor order.
    """

    num_workers: int
    batches: List[List[int]] = field(default_factory=list)
    sharded: List[int] = field(default_factory=list)

    @property
    def batched_components(self) -> int:
        return sum(len(batch) for batch in self.batches)


def plan_shards(
    snapshots: Sequence[ComponentSnapshot],
    num_workers: int,
    shard_threshold: int = DEFAULT_SHARD_THRESHOLD,
) -> ShardPlan:
    """Partition components into per-worker batches plus sharded giants.

    Small components are packed greedily (largest first, onto the
    least-loaded worker, lowest id on ties) by estimated cost
    ``|members| + |factors|`` — deterministic, and good enough because
    correctness never depends on the assignment.
    """
    plan = ShardPlan(num_workers=num_workers, batches=[[] for _ in range(num_workers)])
    small: List[Tuple[int, int]] = []  # (cost, snapshot index)
    for index, (members, rows) in enumerate(snapshots):
        if len(members) >= shard_threshold:
            plan.sharded.append(index)
        else:
            small.append((len(members) + len(rows), index))
    small.sort(key=lambda pair: (-pair[0], pair[1]))
    loads = [0] * num_workers
    for cost, index in small:
        worker = min(range(num_workers), key=lambda w: (loads[w], w))
        plan.batches[worker].append(index)
        loads[worker] += cost
    return plan


def split_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous near-even ranges."""
    base, extra = divmod(n, parts)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for part in range(parts):
        end = start + base + (1 if part < extra else 0)
        ranges.append((start, end))
        start = end
    return ranges


# ------------------------------------------------------------ worker tasks


def _task_sample_batch(state: _WorkerState, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool task: sample this worker's batch of whole components."""
    marginals, colors = sample_serially(
        payload["components"], payload["num_sweeps"], payload["seed"]
    )
    return {"marginals": marginals, "colors": colors}


def _run_shard_job(state: _WorkerState, job: Dict[str, Any]) -> Tuple[Dict[int, float], int]:
    """This worker's share of one sharded component's chromatic sweep.

    Rebuilds the canonical graph locally (identical in every process),
    sweeps only its contiguous range, and trades boundary states with
    its peers at the end of every colour.
    """
    graph = build_component_graph(job["members"], job["rows"])
    sampler = GibbsSampler(graph, seed=job["seed"])
    ranges: List[Tuple[int, int]] = job["ranges"]
    participants: List[int] = job["participants"]
    me: int = job["me"]
    start, end = ranges[me]
    owned = list(range(start, end))
    if len(participants) == 1:
        result = sampler.run_stream(num_sweeps=job["num_sweeps"], owned=owned)
        return result.marginals, result.num_colors

    # vars each peer needs from me: my vars with a neighbour in its range
    neighbors = graph.neighbors()
    send_sets: Dict[int, set] = {}
    for position, peer in enumerate(participants):
        if position == me:
            continue
        peer_start, peer_end = ranges[position]
        send_sets[peer] = {
            var
            for var in owned
            if any(peer_start <= u < peer_end for u in neighbors[var])
        }
    peers = [peer for position, peer in enumerate(participants) if position != me]
    epoch_base = job["epoch_base"]

    def exchange(sweep: int, color: int, updates: Dict[int, int]) -> Dict[int, int]:
        # tuple epochs cannot collide with the integer motion epochs
        epoch = (epoch_base, sweep, color)
        for peer in peers:
            boundary = send_sets[peer]
            state.send_to_worker(
                epoch,
                peer,
                {var: value for var, value in updates.items() if var in boundary},
            )
        merged: Dict[int, int] = {}
        for piece in state.collect_from_workers(epoch, peers).values():
            merged.update(piece)
        return merged

    result = sampler.run_stream(
        num_sweeps=job["num_sweeps"], owned=owned, exchange=exchange
    )
    return result.marginals, result.num_colors


def _task_sample_shards(state: _WorkerState, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool task: sweep every sharded component, in the shared job order.

    All workers receive the same jobs in the same order (only ``me``
    differs), so the per-colour barriers line up and cannot deadlock.
    """
    marginals: Dict[int, float] = {}
    colors = 0
    for job in payload["jobs"]:
        piece, job_colors = _run_shard_job(state, job)
        marginals.update(piece)
        colors = max(colors, job_colors)
    return {"marginals": marginals, "colors": colors}


# ----------------------------------------------------------------- driver


class ParallelGibbsDriver:
    """Master-side driver: componentwise Gibbs over a worker pool.

    With ``num_workers < 2`` (or after a crash degraded it) the driver
    samples serially in-process — same marginals, no processes spawned.
    The pool itself is created lazily on the first pooled batch and
    persists across calls, like the MPP executor's.
    """

    def __init__(
        self,
        num_workers: int = 0,
        worker_timeout: float = 60.0,
        shard_threshold: int = DEFAULT_SHARD_THRESHOLD,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if shard_threshold < 2:
            raise ValueError(
                f"shard_threshold must be >= 2, got {shard_threshold}"
            )
        self.num_workers = num_workers
        self.worker_timeout = worker_timeout
        self.shard_threshold = shard_threshold
        self._start_method = start_method
        self._pool: Optional[WorkerPool] = None
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self._last: Dict[str, Any] = {}

    @property
    def active(self) -> bool:
        """Will the next batch actually use worker processes?"""
        return self.num_workers >= 2 and not self.degraded

    @property
    def pool(self) -> Optional[WorkerPool]:
        return self._pool

    def info(self) -> Dict[str, Any]:
        """Driver state plus statistics of the last sampled batch."""
        payload: Dict[str, Any] = {
            "num_workers": self.num_workers,
            "active": self.active,
            "degraded": self.degraded,
            "shard_threshold": self.shard_threshold,
        }
        if self.degraded_reason is not None:
            payload["degraded_reason"] = self.degraded_reason
        payload.update(self._last)
        return payload

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down; the next pooled batch respawns it."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def reset(self) -> None:
        """Forget a degrade; the next batch tries the pool again."""
        self.degraded = False
        self.degraded_reason = None

    def __enter__(self) -> "ParallelGibbsDriver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _degrade(self, error: BaseException) -> None:
        self.degraded = True
        self.degraded_reason = str(error) or type(error).__name__
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close(force=True)
        warnings.warn(
            "inference worker pool lost "
            f"({self.degraded_reason}); continuing with serial sampling",
            RuntimeWarning,
            stacklevel=4,
        )

    # -- sampling ------------------------------------------------------------

    def sample_components(
        self,
        snapshots: Sequence[ComponentSnapshot],
        num_sweeps: int,
        seed: int,
    ) -> Dict[int, float]:
        """Marginals over a batch of component snapshots.

        Bit-identical to :func:`repro.infer.components.sample_components`
        without a driver, for any ``num_workers``.
        """
        started = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
        if not self.active or not snapshots:
            marginals, colors = sample_serially(snapshots, num_sweeps, seed)
            self._record(started, snapshots, sharded=0, colors=colors, pooled=False)
            return marginals
        try:
            return self._sample_pooled(snapshots, num_sweeps, seed, started)
        except WorkerCrashError as error:
            self._degrade(error)
            started = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
            marginals, colors = sample_serially(snapshots, num_sweeps, seed)
            self._record(started, snapshots, sharded=0, colors=colors, pooled=False)
            return marginals

    def _sample_pooled(
        self,
        snapshots: Sequence[ComponentSnapshot],
        num_sweeps: int,
        seed: int,
        started: float,
    ) -> Dict[int, float]:
        pool = self._ensure_pool()
        plan = plan_shards(snapshots, pool.num_workers, self.shard_threshold)
        marginals: Dict[int, float] = {}
        colors = 0
        if plan.batched_components:
            payloads = [
                {
                    "components": [snapshots[index] for index in batch],
                    "num_sweeps": num_sweeps,
                    "seed": seed,
                }
                for batch in plan.batches
            ]
            for reply in pool.run_tasks(_BATCH_TASK, payloads).values():
                marginals.update(reply["marginals"])
                colors = max(colors, reply["colors"])
        if plan.sharded:
            participants = list(range(pool.num_workers))
            jobs: List[List[Dict[str, Any]]] = [[] for _ in participants]
            for index in plan.sharded:
                member_ids, rows = snapshots[index]
                members = sorted(member_ids)
                ranges = split_ranges(len(members), pool.num_workers)
                epoch_base = pool.next_epoch()
                for me in participants:
                    jobs[me].append(
                        {
                            "members": members,
                            "rows": rows,
                            "num_sweeps": num_sweeps,
                            "seed": component_seed(seed, members[0]),
                            "ranges": ranges,
                            "participants": participants,
                            "me": me,
                            "epoch_base": epoch_base,
                        }
                    )
            payloads = [{"jobs": worker_jobs} for worker_jobs in jobs]
            for reply in pool.run_tasks(_SHARD_TASK, payloads).values():
                marginals.update(reply["marginals"])
                colors = max(colors, reply["colors"])
        self._record(
            started, snapshots, sharded=len(plan.sharded), colors=colors, pooled=True
        )
        return marginals

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(
                nseg=self.num_workers,
                num_workers=self.num_workers,
                reply_timeout=self.worker_timeout,
                start_method=self._start_method,
            )
        return self._pool

    def _record(
        self,
        started: float,
        snapshots: Sequence[ComponentSnapshot],
        sharded: int,
        colors: int,
        pooled: bool,
    ) -> None:
        self._last = {
            "pooled": pooled,
            "components": len(snapshots),
            "sharded_components": sharded,
            "colors": colors,
            "wall_seconds": time.perf_counter() - started,  # lint: disable=RC003 (timing metadata, not sampling)
        }
