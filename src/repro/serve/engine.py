"""The concurrency-safe serving engine around a :class:`~repro.ProbKB`.

A :class:`KBService` gives many reader threads pattern-query access to
the expanded KB while a single ingest worker streams new evidence in.
Consistency model: a readers-writer lock serializes ingest flushes
against queries, so every query observes one KB generation — never a
half-merged delta.  Each result carries the generation it was computed
under, which is what the torn-read assertions in the concurrency tests
(and downstream caches) key on.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..core.clauses import HornClause
from ..core.config import InferenceConfig
from ..core.model import Fact
from ..core.probkb import ProbKB
from ..delta import DeltaExpander, PendingDelta
from ..devtools.sanitizer import get_sanitizer, make_lock, shadow_token
from .cache import EVICTION_POLICIES, QueryCache
from .ingest import EvidenceQueue, IngestConfig, IngestWorker
from .logging import NULL_LOGGER, JsonLogger
from .metrics import ServiceMetrics

#: how a flush refreshes the KB: "full" re-expands globally (the PR-1
#: behavior), "delta" routes through :mod:`repro.delta`
EXPANSION_MODES = ("full", "delta")


class RWLock:
    """A readers-writer lock with writer preference.

    Queries are plentiful and cheap; flushes are rare and must not
    starve, so arriving readers queue behind a waiting writer.
    """

    def __init__(self, name: str = "RWLock") -> None:
        self._lock = make_lock(f"{name}._lock")
        self._readers_ok = threading.Condition(self._lock)
        self._writers_ok = threading.Condition(self._lock)
        self._active_readers = 0  # guarded by: self._lock
        self._waiting_writers = 0  # guarded by: self._lock
        self._writer_active = False  # guarded by: self._lock
        # in the sanitizer's order graph the whole RWLock is one node;
        # the token is never noted while _lock is held, so the internal
        # bookkeeping lock cannot form a false edge against it
        self._shadow = shadow_token(name)

    def acquire_read(self) -> None:
        if self._shadow is not None:
            get_sanitizer().check_acquire(self._shadow, self._shadow.name)
        with self._lock:
            while self._writer_active or self._waiting_writers:
                self._readers_ok.wait()
            self._active_readers += 1
        if self._shadow is not None:
            get_sanitizer().note_acquired(self._shadow, self._shadow.name)

    def release_read(self) -> None:
        if self._shadow is not None:
            get_sanitizer().note_released(self._shadow)
        with self._lock:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._writers_ok.notify()

    def acquire_write(self) -> None:
        if self._shadow is not None:
            get_sanitizer().check_acquire(self._shadow, self._shadow.name)
        with self._lock:
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers:
                    self._writers_ok.wait()
            finally:
                self._waiting_writers -= 1
            self._writer_active = True
        if self._shadow is not None:
            get_sanitizer().note_acquired(self._shadow, self._shadow.name)

    def release_write(self) -> None:
        if self._shadow is not None:
            get_sanitizer().note_released(self._shadow)
        with self._lock:
            self._writer_active = False
            if self._waiting_writers:
                self._writers_ok.notify()
            else:
                self._readers_ok.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass
class ServiceConfig:
    """Serving-layer tuning, independent of the wrapped KB's own config."""

    cache_size: int = 256
    #: query-cache eviction policy: "lru" (default), "lfu", or "ttl"
    cache_policy: str = "lru"
    #: entry lifetime in seconds; required when ``cache_policy="ttl"``
    cache_ttl: Optional[float] = None
    ingest: IngestConfig = field(default_factory=IngestConfig)
    #: rerun marginal inference + TProb after each flush; costly, so off
    #: by default — queries then report None for fresh inferred facts
    #: until the operator materializes.
    infer_on_flush: bool = False
    latency_window: int = 1024
    #: how flush/materialize inference runs (fewer sweeps than the
    #: offline default: serving favours latency)
    inference: Optional[InferenceConfig] = None
    #: "full" (default) re-expands and leaves fresh facts unscored until
    #: materialize; "delta" incrementally grounds each flush and
    #: re-samples only the touched factor-graph components
    #: (:mod:`repro.delta`), keeping marginals continuously fresh
    expansion: str = "full"

    def __post_init__(self) -> None:
        if self.cache_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown cache_policy {self.cache_policy!r}; "
                f"choose from {', '.join(EVICTION_POLICIES)}"
            )
        if self.expansion not in EXPANSION_MODES:
            raise ValueError(
                f"unknown expansion {self.expansion!r}; "
                f"choose from {', '.join(EXPANSION_MODES)}"
            )
        if self.inference is None:
            self.inference = InferenceConfig(sweeps=200, seed=0)


class QueryResult(NamedTuple):
    """A query answer pinned to the generation it was computed under."""

    generation: int
    facts: List[Tuple[Fact, Optional[float]]]
    cache_hit: bool


class DeltaPipeline:
    """FIFO handoff from delta grounding to delta inference.

    Stage A (grounding, under the write lock) submits a
    :class:`~repro.delta.PendingDelta`; this single consumer thread runs
    stages B+C (re-sample off-lock, then commit under the write lock).
    Double buffering falls out of the split: while batch N's components
    are being re-sampled here, the ingest worker is free to ground batch
    N+1.  FIFO order plus A-time payload snapshots make the interleaving
    sequentially equivalent — if N+1 merged one of N's components, N+1's
    own re-sample is queued behind N's and overwrites any stale splice.
    """

    def __init__(
        self,
        finish: Callable[[PendingDelta], None],
        logger: Optional[JsonLogger] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        self._finish = finish
        self._logger = logger if logger is not None else NULL_LOGGER
        self._on_error = on_error
        self._queue: "queue_module.Queue[Optional[PendingDelta]]" = (
            queue_module.Queue()
        )
        self._lock = make_lock("DeltaPipeline._lock")
        self._thread: Optional[threading.Thread] = None  # guarded by: self._lock
        # written only by the consumer thread, read anywhere (stats)
        self.errors = 0

    def submit(self, pending: PendingDelta) -> None:
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                # first submit, or the pipeline was stopped: a finished
                # Thread cannot be restarted, so hand work to a fresh one
                self._thread = threading.Thread(
                    target=self._run, name="probkb-delta-infer", daemon=True
                )
                self._thread.start()
        self._queue.put(pending)

    def drain(self) -> None:
        """Block until every submitted delta has been committed."""
        self._queue.join()

    def stop(self) -> None:
        # the lock is held across put+join so a concurrent submit cannot
        # spin up a second consumer while the sentinel is in flight;
        # _run never takes this lock, so the join cannot deadlock
        with self._lock:
            thread = self._thread
            self._thread = None
            if thread is not None and thread.is_alive():
                self._queue.put(None)
                thread.join()

    @property
    def depth(self) -> int:
        """Deltas grounded but not yet committed (approximate)."""
        return self._queue.qsize()

    def _run(self) -> None:
        while True:
            # sentinel wakeup: stop() enqueues None behind pending work
            item = self._queue.get()  # lint: disable=RC004
            try:
                if item is None:
                    return
                try:
                    self._finish(item)
                except Exception as error:
                    # the consumer must outlive any one bad delta:
                    # swallowing here keeps the thread draining so later
                    # submits are not enqueued forever (see RC005)
                    self.errors += 1
                    self._logger.log("delta_error", error=repr(error))
                    if self._on_error is not None:
                        try:
                            self._on_error(error)
                        except Exception:  # pragma: no cover - defensive
                            pass
            finally:
                self._queue.task_done()


class KBService:
    """A long-lived, concurrency-safe front end over one ProbKB."""

    def __init__(
        self,
        probkb: ProbKB,
        config: Optional[ServiceConfig] = None,
        logger: Optional[JsonLogger] = None,
    ) -> None:
        self.probkb = probkb
        self.config = config or ServiceConfig()
        self.logger = logger if logger is not None else NULL_LOGGER
        self.lock = RWLock(name="KBService.lock")
        self.cache = QueryCache(
            self.config.cache_size,
            policy=self.config.cache_policy,
            ttl=self.config.cache_ttl,
        )
        self.cache.bump(probkb.generation)
        self.metrics = ServiceMetrics(self.config.latency_window)
        self.queue = EvidenceQueue(self.config.ingest)
        self.worker = IngestWorker(
            self.queue,
            self._apply_batch,
            on_drop=self.metrics.record_dead_letter,
            logger=self.logger,
        )
        self.delta: Optional[DeltaExpander] = None
        self.pipeline: Optional[DeltaPipeline] = None
        if self.config.expansion == "delta":
            self.delta = DeltaExpander(probkb, inference=self.config.inference)
            self.pipeline = DeltaPipeline(
                self._finish_delta,
                logger=self.logger,
                on_error=self._on_delta_error,
            )
        # wall-clock birth time stays externally visible; elapsed time is
        # measured on the monotonic clock, immune to NTP steps (RC006)
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._running = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "KBService":
        if not self._running:
            self.worker.start()
            self._running = True
        return self

    def stop(self) -> None:
        if self._running:
            self.worker.stop(drain=True)
            if self.pipeline is not None:
                self.pipeline.drain()
                self.pipeline.stop()
            self._running = False

    def __enter__(self) -> "KBService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- read side ---------------------------------------------------------

    def query(
        self,
        relation: Optional[str] = None,
        subject: Optional[str] = None,
        object: Optional[str] = None,
        min_probability: float = 0.0,
    ) -> QueryResult:
        """Pattern-query the expanded KB, through the generation cache."""
        started = time.perf_counter()
        key = (relation, subject, object, min_probability)
        hit, cached = self.cache.get(key)
        if hit:
            generation, facts = cached
            self.metrics.record_query(time.perf_counter() - started, cache_hit=True)
            return QueryResult(generation, facts, True)
        with self.lock.read_locked():
            generation = self.probkb.generation
            facts = self.probkb.query_facts(
                relation=relation,
                subject=subject,
                object=object,
                min_probability=min_probability,
            )
        # tag the entry with the one relation it can depend on, so a
        # delta flush over other predicates leaves it warm; pattern-free
        # queries depend on everything (None = evict on any flush)
        predicates = frozenset((relation,)) if relation is not None else None
        self.cache.put(
            key, (generation, facts), generation=generation, predicates=predicates
        )
        self.metrics.record_query(time.perf_counter() - started, cache_hit=False)
        return QueryResult(generation, facts, False)

    def fact_count(self) -> int:
        with self.lock.read_locked():
            return self.probkb.fact_count()

    def explain(self) -> dict:
        """Static plan report for the current KB (a read: nothing
        executes, no table changes — safe under concurrent ingest).
        The ``verified`` block carries the plan verifier's PKB201-212
        reports for every plan in the payload."""
        with self.lock.read_locked():
            report = self.probkb.explain()
            verified = self.probkb.verify_plans()
            generation = self.probkb.generation
        payload = report.to_dict()
        payload["verified"] = [r.to_dict() for r in verified]
        payload["generation"] = generation
        return payload

    @property
    def generation(self) -> int:
        with self.lock.read_locked():
            return self.probkb.generation

    # -- write side ----------------------------------------------------------

    def ingest(self, facts: Sequence[Fact], flush: bool = False) -> int:
        """Queue evidence for the next micro-batch flush.

        Returns the queue depth after enqueueing.  ``flush=True`` applies
        everything pending before returning (synchronous ingest).
        """
        depth = self.queue.put(facts)
        if flush:
            self.flush()
            depth = self.queue.depth
        return depth

    def flush(self) -> int:
        """Apply all pending evidence now; returns facts applied.

        In delta mode this also waits for the inference pipeline, so on
        return the refreshed marginals are committed and queryable.
        """
        applied = self.worker.flush()
        if self.pipeline is not None:
            self.pipeline.drain()
        return applied

    def retry_dead_letter(self) -> Tuple[int, int]:
        """Requeue dead-lettered facts (``POST /dead-letter/retry``).

        Returns ``(facts requeued, queue depth after)``; raises
        :class:`~repro.serve.ingest.IngestOverflow` (nothing lost — the
        facts stay dead-lettered) when the queue cannot absorb them.
        """
        requeued, depth = self.worker.retry_dead_letter()
        if requeued:
            self.metrics.record_dead_letter_retry(requeued)
        return requeued, depth

    def add_rules(self, rules: Sequence[HornClause]) -> int:
        """Synchronously ingest new deductive rules under the write lock.

        Unlike evidence, rules do not stream through the micro-batch
        queue: a rule batch triggers a full naive regrounding, so
        batching buys nothing and the caller wants the analysis verdict
        immediately.  The wrapped KB's ``GroundingConfig.analysis`` gate
        screens the batch — under ``"strict"`` a defective rule raises
        :class:`~repro.analyze.AnalysisError` and nothing changes.
        Returns the number of new facts the rules derived.
        """
        if self.pipeline is not None:
            # let in-flight delta commits land before the rules reshape TΦ
            self.pipeline.drain()
        with self.lock.write_locked():
            outcome = self.probkb.add_rules(rules)
            if self.delta is not None:
                # new rules invalidate the component index and every
                # marginal; re-prime = one full componentwise expansion
                self.delta.prime()
            elif self.config.infer_on_flush:
                self.probkb.materialize_marginals(config=self.config.inference)
            self.cache.bump(self.probkb.generation)
        return outcome.total_new_facts

    def _apply_batch(self, batch: List[Fact]) -> None:
        """The single writer: evidence -> delta regrounding -> new generation."""
        if self.delta is not None:
            self._apply_batch_delta(batch)
            return
        started = time.perf_counter()
        with self.lock.write_locked():
            self.probkb.add_evidence(batch)
            if self.config.infer_on_flush:
                self.probkb.materialize_marginals(config=self.config.inference)
            generation = self.probkb.generation
            self.cache.bump(generation)
        self.metrics.record_ingest(len(batch))
        self.logger.log(
            "flush",
            facts=len(batch),
            generation=generation,
            queue_depth=self.queue.depth,
            latency_ms=round((time.perf_counter() - started) * 1000, 3),
        )

    def _apply_batch_delta(self, batch: List[Fact]) -> None:
        """Stage A of a delta flush: ground + snapshot under the write
        lock, then hand the pending delta to the inference pipeline."""
        assert self.delta is not None and self.pipeline is not None
        started = time.perf_counter()
        try:
            with self.lock.write_locked():
                primed_now = not self.delta.primed  # first flush primes
                pending = self.delta.ground(batch)
                generation = self.probkb.generation
                if pending.full_rebuild or primed_now:
                    self.cache.bump(generation)
                else:
                    self.cache.invalidate_predicates(
                        pending.touched_relations, generation
                    )
        except Exception:
            # a half-grounded delta leaves the expander's index stale;
            # re-prime on the next flush rather than splice garbage
            self.delta.invalidate()
            raise
        ground_seconds = time.perf_counter() - started
        self.metrics.record_ingest(len(batch))
        self.metrics.record_delta_ground(
            facts=pending.grounding.new_facts,
            factors=pending.grounding.new_factors,
            touched_components=pending.touched_components,
            full_rebuild=pending.full_rebuild,
            seconds=ground_seconds,
        )
        self.logger.log(
            "delta_flush",
            facts=len(batch),
            new_facts=pending.grounding.new_facts,
            new_factors=pending.grounding.new_factors,
            touched_components=pending.touched_components,
            touched_relations=sorted(pending.touched_relations),
            full_rebuild=pending.full_rebuild,
            generation=generation,
            queue_depth=self.queue.depth,
            latency_ms=round(ground_seconds * 1000, 3),
        )
        self.pipeline.submit(pending)

    def _finish_delta(self, pending: PendingDelta) -> None:
        """Stages B+C, on the pipeline thread: re-sample the snapshot
        components lock-free, then splice under the write lock."""
        assert self.delta is not None
        started = time.perf_counter()
        refreshed = self.delta.infer(pending)
        inferred = time.perf_counter()
        with self.lock.write_locked():
            self.delta.commit(pending, refreshed)
            generation = self.probkb.generation
            if pending.full_rebuild:
                self.cache.bump(generation)
            else:
                self.cache.invalidate_predicates(
                    pending.touched_relations, generation
                )
        committed = time.perf_counter()
        self.metrics.record_delta_refresh(
            resampled_variables=pending.resampled_variables,
            infer_seconds=inferred - started,
            commit_seconds=committed - inferred,
        )
        self.logger.log(
            "delta_refresh",
            resampled_variables=pending.resampled_variables,
            touched_components=pending.touched_components,
            generation=generation,
            infer_ms=round((inferred - started) * 1000, 3),
            commit_ms=round((committed - inferred) * 1000, 3),
        )

    def _on_delta_error(self, error: BaseException) -> None:
        """Pipeline error hook: a failed stage B/C leaves the expander's
        component index unreliable — re-prime on the next flush."""
        assert self.delta is not None
        self.delta.invalidate()
        self.metrics.record_delta_error()

    def materialize(self, num_sweeps: Optional[int] = None) -> int:
        """Recompute + store marginals under the write lock."""
        inference = self.config.inference
        if num_sweeps is not None:
            inference = replace(inference, sweeps=num_sweeps)
        if self.delta is not None:
            # the delta path keeps TProb fresh; an explicit materialize
            # re-primes the baseline under the requested config
            self.pipeline.drain()  # type: ignore[union-attr]
            with self.lock.write_locked():
                self.delta.inference = inference
                self.delta.prime()
                stored = len(self.delta.marginals)
                self.cache.bump(self.probkb.generation)
            return stored
        with self.lock.write_locked():
            stored = self.probkb.materialize_marginals(config=inference)
            self.cache.bump(self.probkb.generation)
        return stored

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self.lock.read_locked():
            generation = self.probkb.generation
            facts = self.probkb.fact_count()
            factors = self.probkb.factor_count()
        report = {
            "generation": generation,
            "facts": facts,
            "factors": factors,
            "expansion": self.config.expansion,
            "queue_depth": self.queue.depth,
            "ingest_flushes": self.worker.flushes,
            "ingest_retries": self.worker.retries,
            "dead_letter": self.worker.dead_letter_stats(),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "backend": self.probkb.backend.name,
            "executor": self.probkb.backend.executor_info(),
            "inference": self.probkb.inference_info(self.config.inference),
            "cache": self.cache.stats(),
        }
        if self.delta is not None and self.pipeline is not None:
            report["delta_state"] = {
                "primed": self.delta.primed,
                "components": self.delta.index.component_count(),
                "scored_facts": len(self.delta.marginals),
                "pending_inference": self.pipeline.depth,
                "errors": self.pipeline.errors,
            }
        if self.worker.last_error is not None:
            report["last_ingest_error"] = repr(self.worker.last_error)
        report.update(self.metrics.snapshot())
        return report
