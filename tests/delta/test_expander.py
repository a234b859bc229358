"""DeltaExpander state against the tables it describes: which facts a
flush added, and whether the component index is still current."""

from repro import (
    Fact,
    FunctionalConstraint,
    InferenceConfig,
    KnowledgeBase,
    Relation,
    TYPE_I,
)
from repro.api import ExpansionSession
from repro.datasets import paper_kb
from repro.delta import DeltaExpander
from repro.infer import componentwise_marginals
from repro.relational import Scan

SWEEPS = 40
SEED = 5
CONFIG = InferenceConfig(sweeps=SWEEPS, seed=SEED)


def writers_kb():
    kb = paper_kb()
    kb.classes["Writer"].update({"Saul Bellow", "Grace Paley", "Philip Roth"})
    return kb


def test_expand_delta_after_another_writer_re_primes():
    """add_evidence between two delta flushes rebuilds TΦ behind the
    expander's back: the next flush must not splice into the old index."""
    with ExpansionSession(writers_kb(), inference=CONFIG) as session:
        session.ground()
        session.expand_delta(
            [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]
        )
        session.add_evidence(
            [Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93)]
        )
        result = session.expand_delta(
            [Fact("born_in", "Philip Roth", "Writer", "Brooklyn", "Place", 0.8)]
        )
        assert not result.full_rebuild
        expected = componentwise_marginals(session.factor_rows(), SWEEPS, SEED)
        stored = dict(session.backend.query(Scan("TProb")).rows)
        assert stored == expected


def test_new_facts_counts_a_fact_its_own_flush_deleted():
    """Query 3 deletes a fact the same flush merged: TΠ no longer holds
    it, but the flush's new_facts still counts it."""
    kb = KnowledgeBase(
        classes={"Person": {"mandel", "zoe"}, "City": {"berlin", "paris"}},
        relations=[Relation("born_in", "Person", "City")],
        facts=[Fact("born_in", "mandel", "Person", "berlin", "City", 0.9)],
        constraints=[FunctionalConstraint("born_in", arg=TYPE_I)],
    )
    with ExpansionSession(kb) as session:
        expander = DeltaExpander(session, inference=CONFIG)
        expander.prime()
        pending = expander.ground(
            [
                Fact("born_in", "mandel", "Person", "paris", "City", 0.8),
                Fact("born_in", "zoe", "Person", "paris", "City", 0.7),
            ]
        )
        grounding = pending.grounding
        assert grounding.full_rebuild and grounding.removed_facts == 2
        assert grounding.added_evidence == 2
        assert grounding.new_facts == 2
        kept = session.backend.query(
            session.rkb.facts_since(grounding.first_fact_id)
        ).rows
        assert [session.rkb.decode_fact(row).subject for row in kept] == ["zoe"]
