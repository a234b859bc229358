"""Materialized marginals and the query-time interface."""

import itertools

import pytest

from repro import Fact, InferenceConfig, KnowledgeBase, ProbKB, Relation
from repro.core import MPPBackend

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


def test_nan_threshold_rejected(system):
    # p < nan is always false: nan would silently mean "no threshold"
    with pytest.raises(ValueError, match="min_probability"):
        system.query_facts(min_probability=float("nan"))


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


TP_COLUMNS = ("I", "R", "x", "C1", "y", "C2", "w")
MASKS = list(itertools.product((False, True), repeat=3))


def brute_force(probkb, pattern, min_probability):
    """``query_facts`` by hand: every stored TΠ row in stored order, its
    TProb probability (None when unscored), the pattern and threshold
    checked in Python."""
    probabilities = {}
    if probkb.backend.has_table("TProb"):
        probabilities = dict(probkb.backend.project("TProb", ("I", "p")))
    expected = []
    for row in probkb.backend.project("TP", TP_COLUMNS):
        fact = probkb.rkb.decode_fact(row)
        if any(getattr(fact, name) != value for name, value in pattern.items()):
            continue
        probability = probabilities.get(row[0])
        if probability is None:
            if min_probability > 0.0:
                continue
        elif probability < min_probability:
            continue
        expected.append((fact, probability))
    return expected


def oracle_patterns(probkb):
    """Every bound/unbound combination of (relation, subject, object),
    bound to the values of every stored fact."""
    facts = probkb.all_facts()
    patterns = []
    for mask in MASKS:
        names = [n for n, bound in zip(("relation", "subject", "object"), mask) if bound]
        values = sorted({tuple(getattr(f, n) for n in names) for f in facts})
        patterns += [dict(zip(names, v)) for v in values]
    return patterns


def oracle_system(backend, stage):
    kb = paper_kb()
    kb.classes["Writer"].add("Saul Bellow")
    probkb = ProbKB(kb, backend=MPPBackend(nseg=3) if backend == "mpp" else "single")
    probkb.ground()
    if stage != "grounded":
        probkb.materialize_marginals(config=InferenceConfig(sweeps=50, seed=0))
    if stage == "evidence":
        probkb.add_evidence(
            [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]
        )
    return probkb


@pytest.mark.parametrize("stage", ["grounded", "materialized", "evidence"])
@pytest.mark.parametrize("backend", ["single", "mpp"])
def test_query_oracle(backend, stage):
    probkb = oracle_system(backend, stage)
    everything = [p for _, p in brute_force(probkb, {}, 0.0)]
    # each stage exercises what it is for: no scores, all scored, a mix
    assert (None in everything) == (stage != "materialized")
    assert any(p is not None for p in everything) == (stage != "grounded")
    for pattern in oracle_patterns(probkb):
        for threshold in (0.0, 0.5):
            got = probkb.query_facts(**pattern, min_probability=threshold)
            assert got == brute_force(probkb, pattern, threshold), (pattern, threshold)


def scored_kb(size):
    """A rule-free KB of ``size`` facts, every one given a marginal."""
    people = [f"p{i}" for i in range(size)]
    kb = KnowledgeBase(
        classes={"Person": people, "City": ["c0", "c1", "c2"]},
        relations=[Relation("lives_in", "Person", "City")],
        facts=[
            Fact("lives_in", person, "Person", f"c{i % 3}", "City", 0.9)
            for i, person in enumerate(people)
        ],
    )
    return kb, {fact: (i % 10) / 10 for i, fact in enumerate(kb.facts)}


@pytest.mark.parametrize("backend", ["single", "mpp"])
def test_query_reads_only_the_matched_probabilities(backend, monkeypatch):
    kb, marginals = scored_kb(150)
    probkb = ProbKB(kb, backend=MPPBackend(nseg=3) if backend == "mpp" else "single")
    probkb.ground()
    probkb.materialize_marginals(marginals)
    assert probkb.backend.table_size("TProb") >= 100

    statements = []
    original = probkb.backend.query

    def traced(plan):
        result = original(plan)
        explain = probkb.backend.explain_last() if backend == "mpp" else ""
        statements.append((plan, len(result.rows), explain))
        return result

    monkeypatch.setattr(probkb.backend, "query", traced)
    for pattern, threshold in [
        ({"relation": "lives_in", "subject": "p7"}, 0.0),
        ({"subject": "p42"}, 0.0),
        ({"relation": "lives_in", "subject": "p9"}, 0.5),
    ]:
        statements.clear()
        answer = probkb.query_facts(**pattern, min_probability=threshold)
        assert len(answer) == 1
        assert len(statements) <= 2
        assert sum(rows for _, rows, _ in statements) <= 2 * len(answer)
        probability_plans = [
            explain for plan, _, explain in statements if "TProb" in plan.explain()
        ]
        assert probability_plans
        for explain in probability_plans:
            assert "Redistribute" not in explain and "Broadcast" not in explain


def test_works_on_mpp_backend():
    from repro.core import MPPBackend

    probkb = ProbKB(paper_kb(), backend=MPPBackend(nseg=3))
    probkb.ground()
    probkb.materialize_marginals(config=InferenceConfig(sweeps=300, seed=2))
    results = probkb.query_facts(relation="grow_up_in")
    assert len(results) == 2
