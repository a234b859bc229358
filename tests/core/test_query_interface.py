"""Materialized marginals and the query-time interface."""

import pytest

from repro import Fact, InferenceConfig, ProbKB

from .paper_example import paper_kb


@pytest.fixture(scope="module")
def system():
    probkb = ProbKB(paper_kb(), backend="single")
    probkb.ground()
    probkb.materialize_marginals(config=InferenceConfig(sweeps=800, seed=5))
    return probkb


def test_materialize_covers_all_facts(system):
    assert system.backend.table_size("TProb") == system.fact_count()


def test_query_by_relation(system):
    results = system.query_facts(relation="live_in")
    assert len(results) == 2
    for fact, probability in results:
        assert fact.relation == "live_in"
        assert probability is not None


def test_query_by_subject_and_object(system):
    results = system.query_facts(subject="Brooklyn", relation="located_in")
    assert len(results) == 1
    fact, probability = results[0]
    assert fact.object == "New York City"
    assert 0.0 < probability < 1.0
    assert system.query_facts(object="Brooklyn", relation="located_in") == []


def test_query_unknown_names(system):
    assert system.query_facts(relation="owns") == []
    assert system.query_facts(subject="Nobody") == []
    assert system.query_facts(object="Atlantis") == []
    # an unknown name short-circuits even when combined with known ones
    assert system.query_facts(relation="born_in", subject="Nobody") == []
    assert system.query_facts(relation="owns", min_probability=0.9) == []


def test_probability_threshold(system):
    everything = system.query_facts()
    confident = system.query_facts(min_probability=0.55)
    assert len(confident) < len(everything) == system.fact_count()
    for _, probability in confident:
        assert probability >= 0.55


def test_rematerialization_replaces(system):
    first = system.backend.table_size("TProb")
    system.materialize_marginals(config=InferenceConfig(sweeps=200, seed=9))
    assert system.backend.table_size("TProb") == first


def test_query_before_materialization():
    fresh = ProbKB(paper_kb(), backend="single")
    fresh.ground()
    results = fresh.query_facts(relation="born_in")
    assert len(results) == 2
    assert all(probability is None for _, probability in results)
    # thresholds exclude un-scored facts
    assert fresh.query_facts(relation="born_in", min_probability=0.1) == []


def test_threshold_with_materialized_probabilities(system):
    # with TProb present, min_probability=0 returns every scored fact
    everything = system.query_facts(min_probability=0.0)
    assert len(everything) == system.fact_count()
    assert all(probability is not None for _, probability in everything)
    # an impossible threshold excludes everything
    assert system.query_facts(min_probability=1.01) == []


def expandable_system():
    kb = paper_kb()
    kb.classes["Writer"].update({"Saul Bellow", "Grace Paley"})
    probkb = ProbKB(kb, backend="single")
    probkb.ground()
    return probkb


class TestAddEvidenceTwice:
    """Back-to-back incremental ingests — the serving layer's hot path."""

    BATCH_ONE = [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]
    BATCH_TWO = [
        Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93)
    ]

    def test_both_batches_and_their_inferences_land(self):
        system = expandable_system()
        first = system.add_evidence(self.BATCH_ONE)
        count_after_first = system.fact_count()
        second = system.add_evidence(self.BATCH_TWO)
        assert first.total_new_facts >= 1
        assert second.total_new_facts >= 1
        assert system.fact_count() > count_after_first
        # each writer got their rule-derived consequences, queryable
        for name in ("Saul Bellow", "Grace Paley"):
            relations = {
                fact.relation for fact, _ in system.query_facts(subject=name)
            }
            assert {"born_in", "live_in", "grow_up_in"} <= relations

    def test_repeated_batch_is_a_no_op(self):
        system = expandable_system()
        system.add_evidence(self.BATCH_ONE)
        count = system.fact_count()
        outcome = system.add_evidence(self.BATCH_ONE)
        assert outcome.total_new_facts == 0
        assert system.fact_count() == count

    def test_generation_bumps_on_every_mutation(self):
        system = expandable_system()
        generation = system.generation
        system.add_evidence(self.BATCH_ONE)
        assert system.generation == generation + 1
        system.add_evidence(self.BATCH_TWO)
        assert system.generation == generation + 2
        system.materialize_marginals(config=InferenceConfig(sweeps=100, seed=1))
        assert system.generation == generation + 3

    def test_factors_cover_fresh_evidence(self):
        system = expandable_system()
        system.add_evidence(self.BATCH_ONE)
        system.add_evidence(self.BATCH_TWO)
        # TΦ was rebuilt after the second batch: singleton factors exist
        # for both evidence facts (weights 0.88 and 0.93)
        weights = {row[3] for row in system.factor_rows()}
        assert {0.88, 0.93} <= weights


def test_works_on_mpp_backend():
    from repro.core import MPPBackend

    probkb = ProbKB(paper_kb(), backend=MPPBackend(nseg=3))
    probkb.ground()
    probkb.materialize_marginals(config=InferenceConfig(sweeps=300, seed=2))
    results = probkb.query_facts(relation="grow_up_in")
    assert len(results) == 2
