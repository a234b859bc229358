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

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..analyze import verify_report
from ..core.clauses import HornClause
from ..core.config import InferenceConfig
from ..core.model import Fact, check_weights
from ..core.probkb import ProbKB
from ..delta import DeltaExpander, PendingDelta
from ..devtools.sanitizer import get_sanitizer, make_lock, shadow_token
from .cache import QueryCache
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
    ingest: IngestConfig = field(default_factory=IngestConfig)
    #: how flush/materialize inference runs (fewer sweeps than the
    #: offline default: serving favours latency)
    inference: Optional[InferenceConfig] = None
    #: "full" (default) re-expands and leaves fresh facts unscored until
    #: materialize; "delta" incrementally grounds each flush and
    #: re-samples only the touched factor-graph components
    #: (:mod:`repro.delta`), keeping marginals continuously fresh
    expansion: str = "full"

    def __post_init__(self) -> None:
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
        self.cache = QueryCache(self.config.cache_size)
        self.cache.bump(probkb.generation)
        self.metrics = ServiceMetrics()
        self.queue = EvidenceQueue(self.config.ingest)
        self.worker = IngestWorker(
            self.queue,
            self._apply_batch,
            on_drop=self.metrics.record_dead_letter,
            logger=self.logger,
        )
        self.delta: Optional[DeltaExpander] = None
        if self.config.expansion == "delta":
            self.delta = DeltaExpander(probkb, inference=self.config.inference)
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
        if math.isnan(min_probability):
            # nan != nan: every such key would miss and crowd the cache
            raise ValueError("min_probability must be a number, got nan")
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
            verified = verify_report(report)
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
        everything pending before returning (synchronous ingest).  A
        non-finite weight raises ValueError before anything is queued.
        """
        check_weights(facts)
        depth = self.queue.put(facts)
        if flush:
            self.flush()
            depth = self.queue.depth
        return depth

    def flush(self) -> int:
        """Apply all pending evidence now; returns facts applied.

        In delta mode each flush runs ground, infer and commit before
        the next starts, so on return the refreshed marginals are
        committed and queryable.
        """
        return self.worker.flush()

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

        A flush in progress finishes first (ingest flush lock, then the
        write lock), so its inference can never be committed over the
        re-primed marginals of the new rule set.
        """
        with self.worker.paused(), self.lock.write_locked():
            outcome = self.probkb.add_rules(rules)
            if self.delta is not None:
                # new rules invalidate the component index and every
                # marginal; re-prime = one full componentwise expansion
                self.delta.prime()
            self.cache.bump(self.probkb.generation)
        return outcome.total_new_facts

    def _apply_batch(self, batch: List[Fact]) -> None:
        """The single writer: evidence -> regrounding -> new generation.

        Runs on whichever thread flushes, under the ingest worker's
        flush lock."""
        if self.delta is not None:
            self._apply_batch_delta(batch)
            return
        started = time.perf_counter()
        with self.lock.write_locked():
            self.probkb.add_evidence(batch)
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
        """A delta flush: ground + snapshot under the write lock, then
        re-sample and commit (:meth:`_refresh_delta`).

        A failed ground raises (the worker retries, then dead-letters).
        A failed re-sample or commit does not: the batch's facts are
        merged already, so it is logged and counted, and the next flush
        re-primes."""
        assert self.delta is not None
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
        try:
            self._refresh_delta(pending)
        except Exception as error:
            self.delta.invalidate()
            self.metrics.record_delta_error()
            self.logger.log("delta_error", error=repr(error))

    def _refresh_delta(self, pending: PendingDelta) -> None:
        """Re-sample the snapshot components with no lock held (queries
        keep running), then splice under the write lock."""
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

    def materialize(self, num_sweeps: Optional[int] = None) -> int:
        """Recompute + store marginals under the write lock, after any
        flush in progress (the order :meth:`add_rules` takes)."""
        inference = self.config.inference
        if num_sweeps is not None:
            inference = replace(inference, sweeps=num_sweeps)
        with self.worker.paused(), self.lock.write_locked():
            if self.delta is not None:
                # the delta path keeps TProb fresh; an explicit
                # materialize re-primes the baseline under the given config
                self.delta.inference = inference
                self.delta.prime()
                stored = len(self.delta.marginals)
            else:
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
        if self.delta is not None:
            report["delta_state"] = {
                "primed": self.delta.primed,
                "components": len(self.delta.index),
                "scored_facts": len(self.delta.marginals),
            }
        if self.worker.last_error is not None:
            report["last_ingest_error"] = repr(self.worker.last_error)
        report.update(self.metrics.snapshot())
        return report
