"""A query-result cache with generation-based invalidation.

Every ingest flush bumps the KB generation; cached entries are tagged
with the generation they were computed under and a lookup only returns
entries from the *current* generation.  Stale entries are dropped lazily
on access (and wholesale on :meth:`bump`), so invalidation is O(1) per
flush no matter how large the cache is.

Writers that know their blast radius can do better than wholesale:
:meth:`QueryCache.invalidate_predicates` advances the generation but
evicts only entries tagged (via ``put(..., predicates=...)``) with one
of the touched relation names — a delta flush over ``born_in`` leaves
cached ``works_at`` answers warm.

Capacity overflow evicts the least-recently-used entry: a hit
refreshes the entry, the coldest entry goes first.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

from ..devtools.sanitizer import make_lock


class _Entry:
    __slots__ = ("generation", "value", "predicates")

    def __init__(
        self,
        generation: int,
        value: Any,
        predicates: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.generation = generation
        self.value = value
        #: the predicates (relation names) the result depends on; None
        #: means "unknown / all" — such entries fall to any invalidation
        self.predicates = predicates


class QueryCache:
    """A thread-safe query cache keyed by query pattern.

    Keys are whatever tuple the caller builds — the serving layer uses
    ``(relation, subject, object, min_probability)``.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = make_lock("QueryCache._lock")
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()  # guarded by: self._lock
        self._generation = 0  # guarded by: self._lock
        self.hits = 0  # guarded by: self._lock
        self.misses = 0  # guarded by: self._lock
        self.evictions = 0  # guarded by: self._lock
        #: entries evicted by predicate-scoped invalidation
        self.invalidations = 0  # guarded by: self._lock

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def bump(self, generation: Optional[int] = None) -> None:
        """Invalidate everything cached so far.

        With an explicit ``generation`` the cache tracks the KB's own
        counter; without one it self-increments.  Entries written under
        older generations become unreachable either way.
        """
        with self._lock:
            if generation is None:
                self._generation += 1
            elif generation < self._generation:
                raise ValueError(
                    f"generation moved backwards: {generation} < {self._generation}"
                )
            else:
                self._generation = generation
            self._entries.clear()

    def invalidate_predicates(
        self,
        predicates: Iterable[str],
        generation: Optional[int] = None,
    ) -> int:
        """Advance the generation but evict only entries whose results
        could depend on one of ``predicates``.

        A delta flush knows exactly which relations it touched; entries
        over disjoint predicate sets are still correct, so they survive
        the generation advance (their tags are re-stamped to the new
        generation — "computed earlier, still valid here").  Entries
        with no predicate tag (``predicates=None`` at :meth:`put`) are
        conservatively evicted.  Returns the number of evictions.
        """
        touched = frozenset(predicates)
        with self._lock:
            if generation is None:
                self._generation += 1
            elif generation < self._generation:
                raise ValueError(
                    f"generation moved backwards: {generation} < {self._generation}"
                )
            else:
                self._generation = generation
            doomed = [
                key
                for key, entry in self._entries.items()
                if entry.predicates is None or entry.predicates & touched
            ]
            for key in doomed:
                del self._entries[key]
            for entry in self._entries.values():
                entry.generation = self._generation
            self.invalidations += len(doomed)
            return len(doomed)

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; only live current-generation entries hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return False, None
            if entry.generation != self._generation:
                del self._entries[key]
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, entry.value

    def put(
        self,
        key: Hashable,
        value: Any,
        generation: Optional[int] = None,
        predicates: Optional[FrozenSet[str]] = None,
    ) -> None:
        """Store a result computed under ``generation`` (default: current).

        A result computed under an older generation is silently dropped —
        it was already stale when the computation finished.
        ``predicates`` tags the entry with the relation names its result
        depends on, enabling :meth:`invalidate_predicates` to keep it
        across unrelated flushes; None means "depends on everything".
        """
        with self._lock:
            if generation is None:
                generation = self._generation
            if generation != self._generation:
                return
            if key not in self._entries and len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)  # the coldest entry
                self.evictions += 1
            self._entries[key] = _Entry(generation, value, predicates)
            self._entries.move_to_end(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "generation": self._generation,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hits / total if total else 0.0,
            }
