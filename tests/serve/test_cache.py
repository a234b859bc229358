"""QueryCache: LRU behavior and generation-based invalidation."""

import pytest

from repro.serve import QueryCache


def test_miss_then_hit():
    cache = QueryCache(capacity=4)
    hit, value = cache.get(("born_in", None, None, 0.0))
    assert not hit and value is None
    cache.put(("born_in", None, None, 0.0), [1, 2, 3])
    hit, value = cache.get(("born_in", None, None, 0.0))
    assert hit and value == [1, 2, 3]
    assert cache.hits == 1 and cache.misses == 1


def test_lru_eviction_order():
    cache = QueryCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == (True, 1)  # refresh a; b is now LRU
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.get("b") == (False, None)
    assert cache.get("a") == (True, 1)
    assert cache.get("c") == (True, 3)
    assert cache.evictions == 1


def test_bump_invalidates_everything():
    cache = QueryCache(capacity=8)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.bump()
    assert cache.get("a") == (False, None)
    assert cache.get("b") == (False, None)
    assert len(cache) == 0


def test_stale_put_is_dropped():
    """A result computed under an old generation must not be cached."""
    cache = QueryCache(capacity=8)
    observed = cache.generation
    cache.bump()  # a flush lands between compute and put
    cache.put("a", 1, generation=observed)
    assert cache.get("a") == (False, None)


def test_bump_tracks_external_generation():
    cache = QueryCache(capacity=8)
    cache.bump(7)
    assert cache.generation == 7
    cache.put("a", 1)
    assert cache.get("a") == (True, 1)
    with pytest.raises(ValueError):
        cache.bump(3)


def test_stats_and_hit_rate():
    cache = QueryCache(capacity=4)
    cache.put("a", 1)
    cache.get("a")
    cache.get("missing")
    stats = cache.stats()
    assert stats["size"] == 1
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == pytest.approx(0.5)
    assert cache.hit_rate == pytest.approx(0.5)


def test_capacity_validated():
    with pytest.raises(ValueError):
        QueryCache(capacity=0)


class TestPredicateScopedInvalidation:
    def test_only_intersecting_entries_are_evicted(self):
        cache = QueryCache(capacity=8)
        cache.put("q1", 1, predicates=frozenset({"born_in"}))
        cache.put("q2", 2, predicates=frozenset({"works_at"}))
        evicted = cache.invalidate_predicates({"born_in", "live_in"})
        assert evicted == 1
        assert cache.get("q1") == (False, None)
        assert cache.get("q2") == (True, 2)  # disjoint: survived warm
        assert cache.invalidations == 1
        assert cache.stats()["invalidations"] == 1

    def test_untagged_entries_are_conservatively_evicted(self):
        cache = QueryCache(capacity=8)
        cache.put("pattern_free", 1)  # predicates=None: depends on all
        assert cache.invalidate_predicates({"born_in"}) == 1
        assert cache.get("pattern_free") == (False, None)

    def test_survivors_are_restamped_to_the_new_generation(self):
        """A surviving entry must keep hitting after the generation
        advance — the whole point of scoped invalidation."""
        cache = QueryCache(capacity=8)
        cache.put("warm", 7, predicates=frozenset({"works_at"}))
        cache.invalidate_predicates({"born_in"}, generation=5)
        assert cache.generation == 5
        assert cache.get("warm") == (True, 7)

    def test_generation_cannot_move_backwards(self):
        cache = QueryCache(capacity=8)
        cache.bump(9)
        with pytest.raises(ValueError):
            cache.invalidate_predicates({"born_in"}, generation=3)

    def test_self_incrementing_generation(self):
        cache = QueryCache(capacity=8)
        before = cache.generation
        cache.invalidate_predicates({"born_in"})
        assert cache.generation == before + 1

    def test_put_without_predicates_stays_backward_compatible(self):
        cache = QueryCache(capacity=8)
        cache.put("a", 1, generation=cache.generation)  # legacy call shape
        assert cache.get("a") == (True, 1)

