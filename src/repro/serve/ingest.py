"""Bounded evidence ingest with micro-batching and backpressure.

Regrounding cost is dominated by per-flush overhead, not batch size —
the same observation that drives the paper's batch rule application.  So
the serving layer never applies evidence one fact at a time: producers
enqueue into a bounded queue and a single worker drains it in batches,
flushing when either ``flush_size`` facts are pending or the oldest
pending fact has waited ``flush_interval`` seconds.

Backpressure: when the queue is full, ``put`` blocks the producer (up to
``put_timeout``) instead of buffering unboundedly; a timeout raises
:class:`IngestOverflow`, which the HTTP layer maps to 503.  Admission is
all-or-nothing per batch — a 503 means *none* of the batch was queued,
so the client may retry without duplicating evidence.

Failure policy: a batch whose ``apply`` raises is retried once (the KB
write lock makes transient contention plausible) and then moved to a
bounded dead-letter list — accepted evidence is never silently dropped,
and the drop is visible in ``GET /stats``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.model import Fact
from ..devtools.sanitizer import make_lock
from .config import require_finite
from .logging import NULL_LOGGER, JsonLogger


class IngestOverflow(RuntimeError):
    """The evidence queue stayed full past the producer's timeout."""


@dataclass
class IngestConfig:
    """Tuning knobs for the micro-batching ingest path."""

    max_queue: int = 4096
    flush_size: int = 64
    flush_interval: float = 0.2
    put_timeout: float = 5.0
    #: most facts retained in the dead-letter list (oldest evicted first)
    dead_letter_max: int = 1024

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.flush_size < 1:
            raise ValueError(f"flush_size must be >= 1, got {self.flush_size}")
        require_finite("flush_interval", self.flush_interval)
        require_finite("put_timeout", self.put_timeout)
        if self.dead_letter_max < 0:
            raise ValueError(
                f"dead_letter_max must be >= 0, got {self.dead_letter_max}"
            )


def coalesce(facts: Sequence[Fact]) -> List[Fact]:
    """Collapse duplicate fact keys within one batch (last write wins).

    Re-extractions of the same triple arrive often in streaming ingest;
    applying them once per batch keeps the anti-join guard's work
    proportional to *distinct* new knowledge.
    """
    by_key: Dict[object, Fact] = {}
    for fact in facts:
        by_key[fact.key] = fact
    return list(by_key.values())


class EvidenceQueue:
    """A bounded FIFO of pending evidence facts.

    Each entry remembers when it was enqueued, so the age trigger always
    measures the oldest fact *still in the queue* — a partial drain must
    not restart the clock for the facts it left behind.
    """

    def __init__(self, config: IngestConfig) -> None:
        self.config = config
        self._lock = make_lock("EvidenceQueue._lock")
        self._items: List[Tuple[float, Fact]] = []  # guarded by: self._lock
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)

    def put(self, facts: Sequence[Fact], timeout: Optional[float] = None) -> int:
        """Enqueue a batch atomically, blocking while there is no room.

        The whole batch is admitted or none of it: capacity is reserved
        up front, so a producer that sees :class:`IngestOverflow` knows
        the queue depth is exactly what it was before the call and can
        retry without duplicating a partially-admitted prefix.  A batch
        larger than ``max_queue`` can never fit and fails immediately.

        Returns the queue depth after the enqueue.
        """
        count = len(facts)
        if count > self.config.max_queue:
            raise IngestOverflow(
                f"batch of {count} facts can never fit the evidence queue "
                f"(max_queue={self.config.max_queue}); split the batch"
            )
        if timeout is None:
            timeout = self.config.put_timeout
        deadline = time.monotonic() + timeout
        with self._lock:
            while len(self._items) + count > self.config.max_queue:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._not_full.wait(remaining):
                    raise IngestOverflow(
                        f"evidence queue full ({self.config.max_queue}) "
                        f"for {timeout:.1f}s"
                    )
            now = time.monotonic()
            self._items.extend((now, fact) for fact in facts)
            if count:
                self._not_empty.notify_all()
            return len(self._items)

    def drain(self, max_items: Optional[int] = None) -> List[Fact]:
        """Dequeue up to ``max_items`` facts (all, if None)."""
        with self._lock:
            if max_items is None or max_items >= len(self._items):
                taken, self._items = self._items, []
            else:
                taken = self._items[:max_items]
                self._items = self._items[max_items:]
            if taken:
                self._not_full.notify_all()
            return [fact for _, fact in taken]

    def oldest_age(self) -> Optional[float]:
        """Seconds the oldest *remaining* fact has been queued, if any."""
        with self._lock:
            if not self._items:
                return None
            return time.monotonic() - self._items[0][0]

    def wait_ready(self, stop: threading.Event) -> bool:
        """Block until a flush is due (size or age trigger) or ``stop``.

        Returns True when there is something to flush.
        """
        config = self.config
        with self._lock:
            while not stop.is_set():
                if len(self._items) >= config.flush_size:
                    return True
                if self._items:
                    age = time.monotonic() - self._items[0][0]
                    if age >= config.flush_interval:
                        return True
                    self._not_empty.wait(config.flush_interval - age)
                else:
                    self._not_empty.wait(0.5)
            return bool(self._items)

    def wake(self) -> None:
        """Wake any thread blocked in :meth:`wait_ready` (shutdown path)."""
        with self._lock:
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)


class IngestWorker:
    """The single consumer thread that turns queued facts into flushes.

    ``apply`` receives a coalesced batch and is the only place evidence
    enters the KB — one writer means flushes are naturally serialized.
    """

    def __init__(
        self,
        queue: EvidenceQueue,
        apply: Callable[[List[Fact]], None],
        on_drop: Optional[Callable[[int], None]] = None,
        logger: Optional[JsonLogger] = None,
    ) -> None:
        self.queue = queue
        self.apply = apply
        self.on_drop = on_drop
        self.logger = logger if logger is not None else NULL_LOGGER
        self._flush_lock = make_lock("IngestWorker._flush_lock")
        self._dead_letter_lock = make_lock("IngestWorker._dead_letter_lock")
        self.flushes = 0  # guarded by: self._flush_lock
        self.retries = 0  # guarded by: self._flush_lock
        self.last_error: Optional[BaseException] = None
        self.dead_letter: List[Fact] = []  # guarded by: self._dead_letter_lock
        self.dead_letter_batches = 0  # guarded by: self._dead_letter_lock
        self.dead_letter_evicted = 0  # guarded by: self._dead_letter_lock
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Start a fresh worker thread; a stopped worker can start again."""
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="probkb-ingest", daemon=True
        )
        self._thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` flush whatever is still queued."""
        self._stop.set()
        self.queue.wake()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join()
        if drain:
            self.flush()

    def _run(self) -> None:
        while self.queue.wait_ready(self._stop):
            try:
                self._flush_once(self.queue.config.flush_size)
            except Exception as error:
                # _apply_with_retry already catches apply failures; this
                # guards the drain/coalesce machinery itself so the only
                # ingest worker can never die silently mid-service (RC005)
                self.last_error = error
                self.logger.log(
                    "ingest_worker_error",
                    error=repr(error),
                    queue_depth=self.queue.depth,
                )
        # shutdown: leave leftovers for stop(drain=True)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Hold off every flush (the worker's and synchronous ones) for
        the block; a flush already applying finishes first.  For the
        other KB writers, which must not interleave with a flush."""
        with self._flush_lock:
            yield

    def _flush_once(self, max_items: Optional[int]) -> int:
        with self._flush_lock:
            batch = coalesce(self.queue.drain(max_items))
            if not batch:
                return 0
            self._idle.clear()
            try:
                self._apply_with_retry(batch)
            finally:
                self._idle.set()
            return len(batch)

    # holds: self._flush_lock
    def _apply_with_retry(self, batch: List[Fact]) -> None:
        """Apply a drained batch; retry once, then dead-letter it.

        Only ``Exception`` is treated as an apply failure —
        ``KeyboardInterrupt``/``SystemExit`` propagate, because hiding an
        interpreter shutdown inside ``last_error`` is how a Ctrl-C turns
        into a hung process.
        """
        try:
            self.apply(batch)
            self.flushes += 1
            return
        except Exception as error:
            self.last_error = error
            self.logger.log(
                "flush_error",
                error=repr(error),
                facts=len(batch),
                retrying=True,
                queue_depth=self.queue.depth,
            )
        self.retries += 1
        try:
            self.apply(batch)
            self.flushes += 1
        except Exception as error:
            self.last_error = error
            self._to_dead_letter(batch, error)

    def _to_dead_letter(self, batch: List[Fact], error: Exception) -> None:
        limit = self.queue.config.dead_letter_max
        with self._dead_letter_lock:
            self.dead_letter_batches += 1
            self.dead_letter.extend(batch)
            overflow = len(self.dead_letter) - limit
            if overflow > 0:
                del self.dead_letter[:overflow]
                self.dead_letter_evicted += overflow
        if self.on_drop is not None:
            self.on_drop(len(batch))
        self.logger.log(
            "dead_letter",
            error=repr(error),
            facts=len(batch),
            queue_depth=self.queue.depth,
        )

    def dead_letter_stats(self) -> Dict[str, int]:
        """Counters for ``GET /stats``: what failed and what was kept."""
        with self._dead_letter_lock:
            return {
                "batches": self.dead_letter_batches,
                "facts": len(self.dead_letter),
                "evicted": self.dead_letter_evicted,
            }

    def take_dead_letter(self) -> List[Fact]:
        """Remove and return the retained dead-letter facts (for replay)."""
        with self._dead_letter_lock:
            taken, self.dead_letter = self.dead_letter, []
            return taken

    def retry_dead_letter(self) -> Tuple[int, int]:
        """Drain the dead-letter list back through the evidence queue.

        The operator's re-ingest path (``POST /dead-letter/retry``): the
        retained facts re-enter the normal micro-batch flow, so they get
        the same coalescing, retry, and — if they fail again — the same
        dead-lettering as fresh evidence.  If the queue cannot take them
        (:class:`IngestOverflow`) the facts are put back at the *front*
        of the dead-letter list (oldest-first order preserved, bounded
        as usual) and the overflow propagates, so nothing is lost.

        Returns ``(facts requeued, queue depth after)``.
        """
        batch = self.take_dead_letter()
        if not batch:
            return 0, self.queue.depth
        try:
            depth = self.queue.put(batch)
        except IngestOverflow:
            limit = self.queue.config.dead_letter_max
            with self._dead_letter_lock:
                self.dead_letter[:0] = batch
                overflow = len(self.dead_letter) - limit
                if overflow > 0:
                    del self.dead_letter[:overflow]
                    self.dead_letter_evicted += overflow
            raise
        self.logger.log(
            "dead_letter_retry", facts=len(batch), queue_depth=depth
        )
        return len(batch), depth

    def flush(self) -> int:
        """Synchronously apply everything queued right now (caller thread).

        Used by tests, shutdown, and ``POST /evidence?flush=1``.
        """
        applied = 0
        while True:
            flushed = self._flush_once(None)
            if not flushed:
                break
            applied += flushed
        return applied
