"""Service metrics: counters plus a fixed-size latency ring buffer.

Everything here is updated from request threads and the ingest worker
concurrently, so each structure carries its own lock.  Reads produce a
plain dict snapshot (what ``GET /stats`` returns).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..devtools.sanitizer import make_lock


class LatencyRing:
    """The last N observed latencies, with percentile queries.

    A bounded ring keeps the percentile computation O(N log N) for a
    constant N regardless of how long the service has been up — the
    standard tradeoff for cheap online p50/p99.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = make_lock("LatencyRing._lock")
        self._samples: List[float] = []  # guarded by: self._lock
        self._next = 0  # guarded by: self._lock
        self._count = 0  # guarded by: self._lock

    def observe(self, seconds: float) -> None:
        with self._lock:
            if len(self._samples) < self.capacity:
                self._samples.append(seconds)
            else:
                self._samples[self._next] = seconds
                self._next = (self._next + 1) % self.capacity
            self._count += 1

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile (0 <= q <= 100) of the retained window."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return None
        rank = max(0, min(len(samples) - 1, round(q / 100.0 * (len(samples) - 1))))
        return samples[rank]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "p50_seconds": self.percentile(50),
            "p99_seconds": self.percentile(99),
        }


#: samples each latency ring keeps
LATENCY_WINDOW = 1024


class ServiceMetrics:
    """Counters for the serving layer, safe for concurrent updates."""

    def __init__(self) -> None:
        self._lock = make_lock("ServiceMetrics._lock")
        self.queries = 0  # guarded by: self._lock
        self.cache_hits = 0  # guarded by: self._lock
        self.cache_misses = 0  # guarded by: self._lock
        self.ingested_facts = 0  # guarded by: self._lock
        self.ingest_batches = 0  # guarded by: self._lock
        self.snapshots_saved = 0  # guarded by: self._lock
        self.auth_failures = 0  # guarded by: self._lock
        self.rate_limited = 0  # guarded by: self._lock
        self.request_timeouts = 0  # guarded by: self._lock
        self.oversize_rejected = 0  # guarded by: self._lock
        self.dead_letter_facts = 0  # guarded by: self._lock
        self.dead_letter_retries = 0  # guarded by: self._lock
        self.delta_flushes = 0  # guarded by: self._lock
        self.delta_facts = 0  # guarded by: self._lock
        self.delta_factors = 0  # guarded by: self._lock
        self.delta_touched_components = 0  # guarded by: self._lock
        self.delta_resampled_variables = 0  # guarded by: self._lock
        self.delta_full_rebuilds = 0  # guarded by: self._lock
        self.delta_errors = 0  # guarded by: self._lock
        self.query_latency = LatencyRing(LATENCY_WINDOW)
        self.delta_ground_latency = LatencyRing(LATENCY_WINDOW)
        self.delta_infer_latency = LatencyRing(LATENCY_WINDOW)
        self.delta_commit_latency = LatencyRing(LATENCY_WINDOW)

    def record_query(self, seconds: float, cache_hit: bool) -> None:
        with self._lock:
            self.queries += 1
            if cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        self.query_latency.observe(seconds)

    def record_ingest(self, facts: int) -> None:
        with self._lock:
            self.ingest_batches += 1
            self.ingested_facts += facts

    def record_snapshot(self) -> None:
        with self._lock:
            self.snapshots_saved += 1

    def record_auth_failure(self) -> None:
        with self._lock:
            self.auth_failures += 1

    def record_rate_limited(self) -> None:
        with self._lock:
            self.rate_limited += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.request_timeouts += 1

    def record_oversize(self) -> None:
        with self._lock:
            self.oversize_rejected += 1

    def record_dead_letter(self, facts: int) -> None:
        """Facts that failed to apply (after retry) and were dead-lettered."""
        with self._lock:
            self.dead_letter_facts += facts

    def record_dead_letter_retry(self, facts: int) -> None:
        """Dead-lettered facts an operator requeued for another attempt."""
        with self._lock:
            self.dead_letter_retries += facts

    def record_delta_ground(
        self,
        facts: int,
        factors: int,
        touched_components: int,
        full_rebuild: bool,
        seconds: float,
    ) -> None:
        """Stage A of a delta flush: what the delta grounding produced."""
        with self._lock:
            self.delta_flushes += 1
            self.delta_facts += facts
            self.delta_factors += factors
            self.delta_touched_components += touched_components
            if full_rebuild:
                self.delta_full_rebuilds += 1
        self.delta_ground_latency.observe(seconds)

    def record_delta_refresh(
        self, resampled_variables: int, infer_seconds: float, commit_seconds: float
    ) -> None:
        """Stages B+C of a delta flush: the marginal refresh."""
        with self._lock:
            self.delta_resampled_variables += resampled_variables
        self.delta_infer_latency.observe(infer_seconds)
        self.delta_commit_latency.observe(commit_seconds)

    def record_delta_error(self) -> None:
        """A delta flush's re-sample or commit raised (and was logged)."""
        with self._lock:
            self.delta_errors += 1

    @property
    def cache_hit_rate(self) -> float:
        with self._lock:
            total = self.cache_hits + self.cache_misses
            return self.cache_hits / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counters: Dict[str, object] = {
                "queries": self.queries,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "ingested_facts": self.ingested_facts,
                "ingest_batches": self.ingest_batches,
                "snapshots_saved": self.snapshots_saved,
                "auth_failures": self.auth_failures,
                "rate_limited": self.rate_limited,
                "request_timeouts": self.request_timeouts,
                "oversize_rejected": self.oversize_rejected,
                "dead_letter_facts": self.dead_letter_facts,
                "dead_letter_retries": self.dead_letter_retries,
            }
            hits, misses = self.cache_hits, self.cache_misses
            delta: Dict[str, object] = {
                "flushes": self.delta_flushes,
                "facts": self.delta_facts,
                "factors": self.delta_factors,
                "touched_components": self.delta_touched_components,
                "resampled_variables": self.delta_resampled_variables,
                "full_rebuilds": self.delta_full_rebuilds,
                "errors": self.delta_errors,
            }
        total = hits + misses
        counters["cache_hit_rate"] = hits / total if total else 0.0
        counters["query_latency"] = self.query_latency.snapshot()
        delta["ground_latency"] = self.delta_ground_latency.snapshot()
        delta["infer_latency"] = self.delta_infer_latency.snapshot()
        delta["commit_latency"] = self.delta_commit_latency.snapshot()
        counters["delta"] = delta
        return counters
