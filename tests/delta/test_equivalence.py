"""Delta expansion vs. full re-expansion: bit-identical at a fixed seed.

The contract under test (ISSUE 6 acceptance): after any sequence of
evidence flushes, the delta path's TΠ, TΦ, and marginals are exactly
what a from-scratch full expansion over the same final evidence — and a
componentwise re-sample at the same seed — would produce.  Identically
constructed systems assign identical fact ids, so the comparison is
exact (multisets of TΦ rows, float-equal marginals), not approximate.
"""

import random
from collections import Counter

import pytest

from repro import (
    Fact,
    FunctionalConstraint,
    InferenceConfig,
    KnowledgeBase,
    ProbKB,
    Relation,
    TYPE_I,
)
from repro.api import ExpansionSession
from repro.datasets import paper_kb
from repro.delta import DeltaExpander
from repro.infer import componentwise_marginals

SWEEPS = 60
SEED = 3
CONFIG = InferenceConfig(sweeps=SWEEPS, seed=SEED)


def expandable_kb():
    kb = paper_kb()
    kb.classes["Writer"].update({"Saul Bellow", "Grace Paley"})
    kb.classes["Place"].add("Chicago")
    return kb


def delta_system(make_kb=expandable_kb):
    system = ProbKB(make_kb(), backend="single")
    expander = DeltaExpander(system, inference=CONFIG)
    expander.prime()
    return system, expander


def reference_marginals(make_kb, batches):
    """Full path: re-ground + re-expand after every batch, then one
    componentwise sample over the final factor graph."""
    system = ProbKB(make_kb(), backend="single")
    system.ground()
    for batch in batches:
        system.add_evidence(batch)
    return system, componentwise_marginals(system.factor_rows(), SWEEPS, SEED)


def factor_bag(system):
    return Counter(system.factor_rows())


def triple_keys(system):
    return {(f.relation, f.subject, f.object) for f in system.all_facts()}


BATCH = [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]


class TestEquivalence:
    def test_single_fact_delta_matches_full(self):
        system, expander = delta_system()
        result = expander.expand_delta(BATCH)
        full, expected = reference_marginals(expandable_kb, [BATCH])
        assert factor_bag(system) == factor_bag(full)
        assert expander.marginals == expected
        assert not result.full_rebuild
        assert result.new_facts == 3  # evidence + live_in + grow_up_in
        assert result.touched_components == 1

    def test_empty_delta_is_a_noop(self):
        system, expander = delta_system()
        before_facts = system.fact_count()
        before_marginals = dict(expander.marginals)
        result = expander.expand_delta([])
        assert result.new_facts == 0 and result.new_factors == 0
        assert result.touched_components == 0
        assert system.fact_count() == before_facts
        assert expander.marginals == before_marginals

    def test_overlapping_delta_dedups_against_existing_facts(self):
        system, expander = delta_system()
        existing = expandable_kb().facts[0]
        result = expander.expand_delta([existing] + BATCH)
        assert result.added_evidence == 1  # the duplicate was guarded out
        full, expected = reference_marginals(expandable_kb, [BATCH])
        assert factor_bag(system) == factor_bag(full)
        assert expander.marginals == expected

    def test_sequence_of_deltas_matches_one_shot_full(self):
        batches = [
            BATCH,
            [Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93)],
            [Fact("live_in", "Saul Bellow", "Writer", "Chicago", "Place", 0.7)],
        ]
        system, expander = delta_system()
        for batch in batches:
            expander.expand_delta(batch)
        full, expected = reference_marginals(expandable_kb, batches)
        assert triple_keys(system) == triple_keys(full)
        assert factor_bag(system) == factor_bag(full)
        assert expander.marginals == expected

    def test_marginals_are_materialized_in_tprob(self):
        system, expander = delta_system()
        expander.expand_delta(BATCH)
        from repro.relational import Scan

        stored = dict(system.backend.query(Scan("TProb")).rows)
        assert stored == pytest.approx(expander.marginals)

    def test_untouched_component_marginals_survive_verbatim(self):
        system, expander = delta_system()
        before = dict(expander.marginals)
        result = expander.expand_delta(BATCH)
        # Saul Bellow's new island is disjoint from Ruth Gruber's, so every
        # marginal in her component must survive the splice verbatim
        assert result.touched_components == 1
        gruber_ids = {
            row[0]
            for row in system.backend.project("TP", ("I", "x"))
            if row[1] == system.rkb.entities.lookup("Ruth Gruber")
        }
        for fact_id in gruber_ids:
            assert expander.marginals[fact_id] == before[fact_id]


class TestConstraintViolatingDelta:
    @staticmethod
    def make_kb():
        classes = {
            "Person": {"mandel", "ann", "zoe"},
            "City": {"berlin", "baltimore", "paris"},
        }
        relations = [
            Relation("born_in", "Person", "City"),
            Relation("live_in", "Person", "City"),
        ]
        facts = [
            Fact("born_in", "mandel", "Person", "berlin", "City", 0.9),
            Fact("born_in", "ann", "Person", "paris", "City", 0.9),
        ]
        kb = KnowledgeBase(
            classes=classes,
            relations=relations,
            facts=facts,
            constraints=[FunctionalConstraint("born_in", arg=TYPE_I)],
        )
        return kb

    def test_violating_delta_forces_full_rebuild_and_matches(self):
        system, expander = delta_system(self.make_kb)
        # a second birthplace for mandel violates the Type I constraint:
        # applyConstraints deletes BOTH mandel facts mid-delta
        violating = [
            Fact("born_in", "mandel", "Person", "baltimore", "City", 0.8),
            Fact("born_in", "zoe", "Person", "paris", "City", 0.7),
        ]
        result = expander.expand_delta(violating)
        assert result.full_rebuild
        remaining = triple_keys(system)
        assert ("born_in", "mandel", "berlin") not in remaining
        assert ("born_in", "mandel", "baltimore") not in remaining
        assert ("born_in", "zoe", "paris") in remaining
        # marginals equal a componentwise sample of the surviving graph
        expected = componentwise_marginals(system.factor_rows(), SWEEPS, SEED)
        assert expander.marginals == expected

    def test_non_violating_delta_on_constrained_kb_stays_incremental(self):
        system, expander = delta_system(self.make_kb)
        result = expander.expand_delta(
            [Fact("born_in", "zoe", "Person", "berlin", "City", 0.7)]
        )
        assert not result.full_rebuild
        full, expected = reference_marginals(
            self.make_kb,
            [[Fact("born_in", "zoe", "Person", "berlin", "City", 0.7)]],
        )
        assert factor_bag(system) == factor_bag(full)
        assert expander.marginals == expected


class TestRandomizedProperty:
    """Property test at a fixed seed: random flush sequences over a
    synthetic KB always reconverge with the full path, bit-for-bit."""

    PEOPLE = [f"p{i}" for i in range(12)]
    CITIES = [f"c{i}" for i in range(4)]

    @classmethod
    def make_kb(cls):
        kb = paper_kb()
        kb.classes["Writer"].update(cls.PEOPLE)
        kb.classes["Place"].update(cls.CITIES)
        return kb

    def random_batches(self, rng, count):
        batches = []
        for _ in range(count):
            size = rng.randint(1, 4)
            batch = [
                Fact(
                    "born_in",
                    rng.choice(self.PEOPLE),
                    "Writer",
                    rng.choice(self.CITIES),
                    "Place",
                    round(rng.uniform(0.5, 0.99), 2),
                )
                for _ in range(size)
            ]
            batches.append(batch)
        return batches

    @pytest.mark.parametrize("case_seed", [0, 1, 2])
    def test_random_flush_sequences_reconverge(self, case_seed):
        rng = random.Random(case_seed)
        batches = self.random_batches(rng, count=4)
        system, expander = delta_system(self.make_kb)
        for batch in batches:
            expander.expand_delta(batch)
        full, expected = reference_marginals(self.make_kb, batches)
        assert triple_keys(system) == triple_keys(full)
        assert factor_bag(system) == factor_bag(full)
        assert expander.marginals == expected


class TestSessionApi:
    def test_expand_delta_via_session(self):
        session = ExpansionSession(expandable_kb())
        session.ground()
        result = session.expand_delta(BATCH)
        assert result.new_facts == 3
        scored = session.query(subject="Saul Bellow", min_probability=0.01)
        assert scored and all(p is not None for _, p in scored)
