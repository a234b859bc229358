"""Componentwise Gibbs sampling on a process pool.

The paper hands TΦ to GraphLab's *parallel* chromatic Gibbs sampler;
this module is that role on the standard library.  Marginals factorise
over connected components, so whole components are independent jobs:
the planner packs them into one batch per worker, balanced by estimated
cost, and every batch runs :func:`~repro.infer.components.sample_serially`
on a persistent :class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism contract: marginals are **bit-identical** to the serial
sampler at a fixed seed regardless of ``num_workers``.  A batch runs the
exact loop the master runs in serial mode, and a component's marginals
are a function of its content alone:

1. Every draw in :meth:`~repro.infer.gibbs.GibbsSampler.run_stream`
   is a pure function of ``(component seed, sweep, color, var)`` —
   no shared RNG stream to serialise.
2. :func:`~repro.infer.components.build_component_graph` is canonical,
   so every process derives the same dense indexing and colouring from
   a component's content alone.

Crash handling: a :class:`~concurrent.futures.process.BrokenProcessPool`
degrades the driver to serial in-process sampling (same marginals, one
``RuntimeWarning``), and it stays degraded until
:meth:`ParallelGibbsDriver.reset`.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .components import ComponentSnapshot, sample_serially


def plan_batches(
    snapshots: Sequence[ComponentSnapshot], num_workers: int
) -> List[List[int]]:
    """Pack whole components into one batch of snapshot indexes per worker.

    Greedy by estimated cost ``|members| + |factors|``: largest first,
    onto the least-loaded worker, lowest id on ties — deterministic, and
    good enough because correctness never depends on the assignment.
    """
    batches: List[List[int]] = [[] for _ in range(num_workers)]
    costs = sorted(
        ((len(members) + len(rows), index) for index, (members, rows) in enumerate(snapshots)),
        key=lambda pair: (-pair[0], pair[1]),
    )
    loads = [0] * num_workers
    for cost, index in costs:
        worker = min(range(num_workers), key=lambda w: (loads[w], w))
        batches[worker].append(index)
        loads[worker] += cost
    return batches


def _ignore_sigint() -> None:
    """Worker initializer: Ctrl-C reaches the whole process group, and
    only the master decides when the pool stops."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class ParallelGibbsDriver:
    """Master-side driver: componentwise Gibbs over a process pool.

    With ``num_workers < 2`` (or after a crash degraded it) the driver
    samples serially in-process — same marginals, no processes spawned.
    The pool itself is created lazily on the first pooled batch and
    persists across calls.
    """

    def __init__(self, num_workers: int = 0) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        self.num_workers = num_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self._last: Dict[str, Any] = {}

    @property
    def active(self) -> bool:
        """Will the next batch actually use worker processes?"""
        return self.num_workers >= 2 and not self.degraded

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        return self._pool

    def info(self) -> Dict[str, Any]:
        """Driver state plus statistics of the last sampled batch."""
        payload: Dict[str, Any] = {
            "num_workers": self.num_workers,
            "active": self.active,
            "degraded": self.degraded,
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
            pool.shutdown(wait=True, cancel_futures=True)

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
        self.close()
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
        if self.active and snapshots:
            try:
                marginals, colors = self._sample_pooled(snapshots, num_sweeps, seed)
                self._record(started, snapshots, colors=colors, pooled=True)
                return marginals
            except BrokenProcessPool as error:
                self._degrade(error)
                started = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
        marginals, colors = sample_serially(snapshots, num_sweeps, seed)
        self._record(started, snapshots, colors=colors, pooled=False)
        return marginals

    def _sample_pooled(
        self,
        snapshots: Sequence[ComponentSnapshot],
        num_sweeps: int,
        seed: int,
    ) -> Tuple[Dict[int, float], int]:
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                sample_serially, [snapshots[index] for index in batch], num_sweeps, seed
            )
            for batch in plan_batches(snapshots, self.num_workers)
            if batch
        ]
        marginals: Dict[int, float] = {}
        colors = 0
        for future in futures:
            piece, piece_colors = future.result()
            marginals.update(piece)
            colors = max(colors, piece_colors)
        return marginals, colors

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # fork keeps spawn latency negligible; spawn is the portable fallback
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
            self._pool = ProcessPoolExecutor(
                self.num_workers, mp_context=context, initializer=_ignore_sigint
            )
        return self._pool

    def _record(
        self,
        started: float,
        snapshots: Sequence[ComponentSnapshot],
        colors: int,
        pooled: bool,
    ) -> None:
        self._last = {
            "pooled": pooled,
            "components": len(snapshots),
            "colors": colors,
            "wall_seconds": time.perf_counter() - started,  # lint: disable=RC003 (timing metadata, not sampling)
        }
