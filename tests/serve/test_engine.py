"""KBService: locking, cached queries, ingest flushes, generations."""

import threading

import pytest

from repro import Fact, InferenceConfig, ProbKB
from repro.datasets import paper_kb
from repro.serve import IngestConfig, KBService, RWLock, ServiceConfig


def expandable_kb():
    kb = paper_kb()
    kb.classes["Writer"].update({"Saul Bellow", "Grace Paley"})
    return kb


@pytest.fixture
def service():
    system = ProbKB(expandable_kb(), backend="single")
    system.ground()
    system.materialize_marginals(config=InferenceConfig(sweeps=150, seed=1))
    svc = KBService(
        system,
        ServiceConfig(ingest=IngestConfig(flush_size=4, flush_interval=0.05)),
    )
    with svc:
        yield svc


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        acquired = []

        def reader():
            with lock.read_locked():
                acquired.append(1)
                barrier.wait(timeout=5)

        barrier = threading.Barrier(3)
        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert len(acquired) == 3  # all three held the read side at once

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("read")

        thread = threading.Thread(target=reader)
        thread.start()
        order.append("write")
        lock.release_write()
        thread.join(timeout=5)
        assert order == ["write", "read"]


class TestQueries:
    def test_query_matches_probkb(self, service):
        direct = service.probkb.query_facts(relation="born_in")
        result = service.query(relation="born_in")
        assert result.facts == direct
        assert result.generation == service.probkb.generation
        assert not result.cache_hit

    def test_repeat_query_hits_cache(self, service):
        first = service.query(relation="live_in")
        second = service.query(relation="live_in")
        assert not first.cache_hit and second.cache_hit
        assert second.facts == first.facts
        assert service.metrics.cache_hits == 1

    def test_min_probability_is_part_of_cache_key(self, service):
        loose = service.query(relation="born_in", min_probability=0.0)
        tight = service.query(relation="born_in", min_probability=0.99)
        assert not tight.cache_hit
        assert len(tight.facts) <= len(loose.facts)

    def test_nan_threshold_rejected_before_the_cache(self, service):
        for _ in range(2):
            with pytest.raises(ValueError, match="min_probability"):
                service.query(min_probability=float("nan"))
        stats = service.cache.stats()
        assert stats["size"] == 0 and stats["misses"] == 0


class TestIngest:
    BATCH = [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]

    def test_flush_applies_evidence_and_bumps_generation(self, service):
        before_generation = service.generation
        before_count = service.fact_count()
        service.ingest(self.BATCH, flush=True)
        assert service.generation > before_generation
        # evidence plus its inferred consequences (live_in, grow_up_in, ...)
        assert service.fact_count() > before_count + 1

    def test_flush_invalidates_cache(self, service):
        service.query(relation="born_in")
        service.ingest(self.BATCH, flush=True)
        after = service.query(relation="born_in")
        assert not after.cache_hit
        assert any(fact.subject == "Saul Bellow" for fact, _ in after.facts)

    def test_worker_flushes_on_size_trigger(self, service):
        import time

        facts = [
            Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93),
            Fact("live_in", "Grace Paley", "Writer", "Brooklyn", "Place", 0.81),
            Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88),
            Fact("live_in", "Saul Bellow", "Writer", "New York City", "City", 0.7),
        ]
        service.ingest(facts)  # == flush_size, so the worker fires
        deadline = time.monotonic() + 5
        while service.worker.flushes == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.worker.flushes >= 1
        assert service.queue.depth == 0
        result = service.query(subject="Grace Paley")
        assert len(result.facts) >= 2

    def test_duplicate_evidence_is_idempotent(self, service):
        service.ingest(self.BATCH, flush=True)
        count = service.fact_count()
        generation = service.generation
        service.ingest(self.BATCH, flush=True)
        assert service.fact_count() == count
        assert service.generation > generation  # flush still versioned


def _ingest_threads():
    return {t for t in threading.enumerate() if t.name == "probkb-ingest"}


class TestLifecycle:
    def test_stopped_service_starts_again(self):
        system = ProbKB(expandable_kb(), backend="single")
        system.ground()
        service = KBService(system)
        before = _ingest_threads()
        with service:
            assert _ingest_threads() - before
        assert not _ingest_threads() - before
        with service:
            assert _ingest_threads() - before
            service.ingest(TestIngest.BATCH, flush=True)
            facts = service.query(subject="Saul Bellow", relation="born_in").facts
            assert [fact.object for fact, _ in facts] == ["Brooklyn"]
        assert not _ingest_threads() - before


class TestMaterializeAndStats:
    def test_materialize_scores_fresh_facts(self, service):
        service.ingest(TestIngest.BATCH, flush=True)
        unscored = service.query(subject="Saul Bellow")
        assert any(probability is None for _, probability in unscored.facts)
        service.materialize(num_sweeps=150)
        scored = service.query(subject="Saul Bellow")
        assert not scored.cache_hit  # materialize invalidated the cache
        assert all(probability is not None for _, probability in scored.facts)

    def test_stats_shape(self, service):
        service.query(relation="born_in")
        service.query(relation="born_in")
        stats = service.stats()
        assert stats["facts"] == service.fact_count()
        assert stats["queries"] == 2
        assert stats["cache_hit_rate"] > 0
        assert stats["queue_depth"] == 0
        assert stats["backend"] == "probkb"
        assert stats["cache"]["generation"] == service.generation
        assert stats["executor"]["mode"] == "single-node"
        assert stats["inference"]["engine"] == "gibbs"
        assert "num_workers" not in stats["inference"]
