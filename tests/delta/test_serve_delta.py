"""KBService with ``expansion="delta"``: fresh marginals on the ingest path.

Serve-level contract: a flush grounds the delta under the write lock,
re-samples only the touched components with no lock held, and splices
under the write lock again, all on the thread that flushes — so queries
see scored probabilities continuously, without an operator
``materialize``, and cached queries over untouched predicates stay warm
across flushes.
"""

import dataclasses
import math
import threading
import time

import pytest

from repro import Fact, InferenceConfig, ProbKB
from repro.api import ExpansionSession
from repro.datasets import paper_kb
from repro.delta import DeltaExpander
from repro.infer import componentwise_marginals
from repro.serve import IngestConfig, KBService, ServiceConfig

SWEEPS = 80
SEED = 5


def expandable_kb():
    kb = paper_kb()
    kb.classes["Writer"].update({"Saul Bellow", "Grace Paley"})
    return kb


def delta_config(**overrides):
    return ServiceConfig(
        expansion="delta",
        ingest=IngestConfig(flush_size=4, flush_interval=0.05),
        inference=InferenceConfig(sweeps=SWEEPS, seed=SEED),
        **overrides,
    )


@pytest.fixture
def service():
    system = ProbKB(expandable_kb(), backend="single")
    system.ground()
    svc = KBService(system, delta_config())
    with svc:
        yield svc


BATCH = [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]


class TestGibbsOnly:
    """The delta path re-samples components with the gibbs kernel; a
    config naming another engine is refused where the expander is
    built, not sampled with gibbs and reported under the other name."""

    BP = InferenceConfig(engine="bp")

    def test_expander_rejects_other_engines(self):
        with ProbKB(expandable_kb()) as system:
            with pytest.raises(ValueError, match="'gibbs'.*'bp'"):
                DeltaExpander(system, inference=self.BP)

    def test_expander_rejects_the_session_default_too(self):
        with ProbKB(expandable_kb(), inference=self.BP) as system:
            with pytest.raises(ValueError, match="'gibbs'.*'bp'"):
                DeltaExpander(system)

    def test_session_expand_delta_rejects_other_engines(self):
        with ExpansionSession(expandable_kb()) as session:
            with pytest.raises(ValueError, match="'gibbs'.*'bp'"):
                session.expand_delta(BATCH, inference=self.BP)
            # nothing was pinned: the session can still expand with gibbs
            assert session.expand_delta(BATCH).new_facts == 3

    def test_service_rejects_other_engines(self):
        with ProbKB(expandable_kb()) as system:
            with pytest.raises(ValueError, match="'gibbs'.*'bp'"):
                KBService(system, ServiceConfig(expansion="delta", inference=self.BP))


class TestDeltaFlush:
    def test_flush_scores_fresh_facts_without_materialize(self, service):
        service.ingest(BATCH, flush=True)
        result = service.query(subject="Saul Bellow", min_probability=0.01)
        assert result.facts  # live_in / grow_up_in derived and scored
        assert all(probability is not None for _, probability in result.facts)

    def test_flush_matches_offline_componentwise_reference(self, service):
        batches = [
            BATCH,
            [Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93)],
        ]
        for batch in batches:
            service.ingest(batch, flush=True)
        reference = ProbKB(expandable_kb(), backend="single")
        reference.ground()
        for batch in batches:
            reference.add_evidence(batch)
        expected = componentwise_marginals(reference.factor_rows(), SWEEPS, SEED)
        assert service.delta is not None
        assert service.delta.marginals == expected

    def test_worker_flush_drains_through_pipeline(self, service):
        """A flush the worker thread started is committed by the time
        an explicit ``flush()`` returns: both hold the flush lock."""
        facts = [
            Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93),
            Fact("live_in", "Grace Paley", "Writer", "Brooklyn", "Place", 0.81),
            Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88),
            Fact("live_in", "Saul Bellow", "Writer", "New York City", "City", 0.7),
        ]
        service.ingest(facts)  # == flush_size: the worker thread fires
        deadline = time.monotonic() + 5
        while service.worker.flushes == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        service.flush()
        result = service.query(subject="Grace Paley", min_probability=0.01)
        assert len(result.facts) >= 2
        assert all(probability is not None for _, probability in result.facts)

    def test_interleaved_queries_never_see_torn_generations(self, service):
        service.materialize()  # prime before the readers start
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                result = service.query(relation="born_in")
                probkb_generation = service.generation
                if result.generation > probkb_generation:
                    torn.append((result.generation, probkb_generation))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        batches = [
            BATCH,
            [Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93)],
            [Fact("live_in", "Grace Paley", "Writer", "Brooklyn", "Place", 0.7)],
        ]
        for batch in batches:
            service.ingest(batch, flush=True)
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
        assert not torn
        reference = ProbKB(expandable_kb(), backend="single")
        reference.ground()
        for batch in batches:
            reference.add_evidence(batch)
        expected = componentwise_marginals(reference.factor_rows(), SWEEPS, SEED)
        assert service.delta.marginals == expected


class TestScopedInvalidation:
    def test_flush_keeps_unrelated_predicate_queries_warm(self, service):
        service.materialize()  # prime, so the next flush is incremental
        warm = service.query(relation="located_in")
        assert not warm.cache_hit
        doomed = service.query(relation="born_in")
        assert not doomed.cache_hit
        service.ingest(BATCH, flush=True)
        # Saul Bellow's flush touches born_in/live_in/grow_up_in, not
        # located_in: the located_in entry survives the flush warm
        assert service.query(relation="located_in").cache_hit
        after = service.query(relation="born_in")
        assert not after.cache_hit
        assert any(fact.subject == "Saul Bellow" for fact, _ in after.facts)

    def test_pattern_free_queries_still_invalidate(self, service):
        service.materialize()
        service.query(subject="Ruth Gruber")  # no relation -> depends on all
        service.ingest(BATCH, flush=True)
        assert not service.query(subject="Ruth Gruber").cache_hit


class TestStats:
    def test_stats_report_delta_state_and_metrics(self, service):
        service.ingest(BATCH, flush=True)
        stats = service.stats()
        assert stats["expansion"] == "delta"
        state = stats["delta_state"]
        assert state["primed"] is True
        assert state["components"] >= 1
        assert state["scored_facts"] == len(service.delta.marginals)
        delta = stats["delta"]
        assert delta["flushes"] >= 1
        assert delta["facts"] >= 3
        assert delta["full_rebuilds"] == 0
        assert delta["ground_latency"]["count"] >= 1
        assert delta["infer_latency"]["count"] >= 1
        assert delta["commit_latency"]["count"] >= 1

    def test_inference_block_describes_the_last_flush(self, service):
        """The flush re-samples through the session's engine, so
        ``inference`` reports its batch, not the priming run's."""
        service.ingest(BATCH, flush=True)
        inference = service.stats()["inference"]
        assert 1 <= inference["components"] < len(service.delta.index)
        assert inference["colors"] >= 1


class TestDeadLetterRetry:
    def test_retry_requeues_and_applies(self, service):
        real_apply = service.worker.apply

        def exploding(batch):
            raise RuntimeError("backend offline")

        service.worker.apply = exploding
        service.ingest(BATCH, flush=True)
        assert service.worker.dead_letter_stats()["facts"] == 1
        assert service.metrics.dead_letter_facts == 1

        service.worker.apply = real_apply
        requeued, depth = service.retry_dead_letter()
        assert requeued == 1 and depth == 1
        assert service.worker.dead_letter_stats()["facts"] == 0
        service.flush()
        result = service.query(subject="Saul Bellow", min_probability=0.01)
        assert result.facts
        assert service.stats()["dead_letter_retries"] == 1

    def test_retry_with_empty_dead_letter_is_a_noop(self, service):
        assert service.retry_dead_letter() == (0, 0)
        assert service.stats()["dead_letter_retries"] == 0


class TestNonFiniteWeights:
    """A NaN or infinite weight in TΠ makes every later inference fail,
    so it is refused where it enters, before anything is stored or
    queued."""

    def test_an_infinite_flush_leaves_the_next_flush_working(self, service):
        bad = Fact("born_in", "Grace Paley", "Writer", "Brooklyn", "Place", math.inf)
        with pytest.raises(ValueError, match="weight of born_in.* is not finite"):
            service.ingest([bad], flush=True)
        assert service.queue.depth == 0
        service.ingest(BATCH, flush=True)
        assert service.query(subject="Saul Bellow", min_probability=0.01).facts
        assert not service.query(subject="Grace Paley").facts
        assert service.worker.dead_letter_stats()["facts"] == 0
        assert service.metrics.dead_letter_facts == 0

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_the_api_refuses_before_writing(self, weight):
        with ExpansionSession(expandable_kb()) as session:
            session.ground()
            facts_before = len(session.all_facts())
            fact = Fact("born_in", "Grace Paley", "Writer", "Brooklyn", "Place", weight)
            with pytest.raises(ValueError, match="is not finite"):
                session.add_evidence([BATCH[0], fact])
            with pytest.raises(ValueError, match="is not finite"):
                session.expand_delta([fact])
            rule = session.kb.rules[0]
            with pytest.raises(ValueError, match="weight of rule .* is not finite"):
                session.add_rules([dataclasses.replace(rule, weight=weight)])
            assert len(session.all_facts()) == facts_before
            assert session.kb.rules == expandable_kb().rules
            session.add_evidence(BATCH)
            assert session.infer()


class RecordingLogger:
    def __init__(self):
        self.events = []

    def log(self, event, **fields):
        self.events.append((event, fields))


class TestDeltaErrorRecovery:
    """A re-sample or commit that raises leaves the flush's facts
    merged: it is logged and counted, the expander re-primes on the next
    flush, and the batch is neither retried nor dead-lettered."""

    def test_failed_inference_is_logged_counted_and_survivable(self):
        system = ProbKB(expandable_kb(), backend="single")
        system.ground()
        logger = RecordingLogger()
        with KBService(system, delta_config(), logger=logger) as service:
            real_infer = service.delta.infer
            failed = threading.Event()

            def exploding(pending):
                service.delta.infer = real_infer  # raise once
                failed.set()
                raise RuntimeError("inference backend offline")

            service.delta.infer = exploding
            service.ingest(BATCH)  # the worker thread flushes it
            assert failed.wait(10)
            service.flush()  # returns once the worker's flush returned

            stats = service.stats()
            assert stats["ingest_flushes"] == 1
            assert stats["delta"]["errors"] == 1
            errors = [fields for event, fields in logger.events if event == "delta_error"]
            assert len(errors) == 1
            assert "inference backend offline" in errors[0]["error"]
            assert stats["dead_letter_facts"] == 0
            assert stats["ingest_retries"] == 0
            assert "probkb-ingest" in {thread.name for thread in threading.enumerate()}
            assert not service.delta.primed  # invalidated for re-prime

            # the next flush re-primes, which scores the first batch too
            more = [Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93)]
            service.ingest(more, flush=True)
            assert service.delta.primed
            for subject in ("Saul Bellow", "Grace Paley"):
                result = service.query(subject=subject, min_probability=0.01)
                assert result.facts
                assert all(probability is not None for _, probability in result.facts)
            assert service.stats()["delta"]["errors"] == 1  # no new errors

    def test_delta_mode_starts_only_the_ingest_thread(self):
        system = ProbKB(expandable_kb(), backend="single")
        system.ground()
        before = set(threading.enumerate())
        with KBService(system, delta_config()) as service:
            service.ingest(BATCH, flush=True)
            service.ingest(
                [Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93)]
            )
            service.flush()
            started = [t.name for t in threading.enumerate() if t not in before]
        assert started == ["probkb-ingest"]
