"""Incremental knowledge expansion: add_evidence + delta re-grounding."""

import pytest

from repro import Atom, BackendConfig, Fact, HornClause, MPPConfig, ProbKB
from repro.analyze import AnalysisWarning
from repro.core.clauses import ClauseError
from repro.serve.snapshot import load_snapshot, save_snapshot

from .paper_example import EXPECTED_CLOSURE, paper_kb


def triples(system):
    return {(f.relation, f.subject, f.object) for f in system.all_facts()}


def batch_system(extra_fact=None):
    """Ground everything at once (the reference outcome)."""
    kb = paper_kb()
    if extra_fact is not None:
        kb.add_fact(extra_fact)
    system = ProbKB(kb, backend="single")
    system.ground()
    return system


def test_incremental_matches_batch():
    """Grounding facts incrementally reaches the same closure as
    grounding everything at once."""
    kb = paper_kb()
    held_out = kb.facts[1]  # born_in(Ruth Gruber, Brooklyn)
    kb.facts = [kb.facts[0]]
    kb._fact_keys = {kb.facts[0].key}
    incremental = ProbKB(kb, backend="single")
    incremental.ground()
    assert ("located_in", "Brooklyn", "New York City") not in triples(incremental)

    outcome = incremental.add_evidence([held_out])
    assert triples(incremental) == EXPECTED_CLOSURE
    assert outcome.converged
    assert incremental.factor_count() == batch_system().factor_count()


def test_evidence_keeps_weight():
    system = ProbKB(paper_kb(), backend="single")
    system.ground()
    new_fact = Fact("born_in", "Ruth Gruber", "Writer", "Brooklyn", "Place", 0.5)
    # duplicate evidence is ignored (set semantics)
    before = system.fact_count()
    system.add_evidence([new_fact])
    assert system.fact_count() == before


def test_new_entity_evidence_expands():
    kb = paper_kb()
    kb.classes["Writer"].add("Saul Bellow")
    system = ProbKB(kb, backend="single")
    system.ground()
    before = system.fact_count()
    evidence = Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.9)
    outcome = system.add_evidence([evidence])
    assert system.fact_count() > before + 1  # evidence + its consequences
    derived = triples(system)
    assert ("live_in", "Saul Bellow", "Brooklyn") in derived
    assert ("grow_up_in", "Saul Bellow", "Brooklyn") in derived
    # the stored evidence kept its extraction weight
    weighted = [
        f for f in system.all_facts()
        if f.subject == "Saul Bellow" and f.weight is not None
    ]
    assert len(weighted) == 1 and weighted[0].weight == 0.9


def test_incremental_factor_rebuild_matches_batch():
    kb = paper_kb()
    kb.classes["Writer"].add("Saul Bellow")
    incremental = ProbKB(kb, backend="single")
    incremental.ground()
    evidence = Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.9)
    incremental.add_evidence([evidence])

    reference = batch_system(None)
    batch_kb = paper_kb()
    batch_kb.classes["Writer"].add("Saul Bellow")
    batch_kb.add_fact(evidence)
    reference = ProbKB(batch_kb, backend="single")
    reference.ground()
    assert triples(incremental) == triples(reference)
    assert incremental.factor_count() == reference.factor_count()


def test_add_evidence_on_mpp():
    from repro.core import MPPBackend

    kb = paper_kb()
    kb.classes["Writer"].add("Saul Bellow")
    system = ProbKB(kb, backend=MPPBackend(nseg=3))
    system.ground()
    system.add_evidence(
        [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.9)]
    )
    assert ("live_in", "Saul Bellow", "Brooklyn") in triples(system)


def add_rules_outcome(backend):
    """Hold two type-1 rules back, ground, then add them: they land in
    partition M1, which already holds the other two."""
    kb = paper_kb()
    held_back = kb.rules[2:4]
    del kb.rules[2:4]
    with ProbKB(kb, backend=backend) as system:
        system.ground()
        system.add_rules(held_back)
        sizes = [system.backend.table_size(f"M{i}") for i in range(1, 7)]
        # fact ids are backend-specific: compare factors by weight
        weights = sorted(row[-1] for row in system.factor_rows())
        return sizes, triples(system), weights


@pytest.mark.parametrize(
    "num_workers", [0, pytest.param(2, marks=pytest.mark.mpp)]
)
def test_add_rules_into_an_occupied_partition_on_mpp(num_workers):
    """Loading a replicated table appends: the MLN partitions keep the
    rules they had (a truncating load left M1 at 2 rows, not 4)."""
    single = add_rules_outcome(BackendConfig(kind="single"))
    mpp = add_rules_outcome(
        BackendConfig(
            kind="mpp", mpp=MPPConfig(num_segments=4, num_workers=num_workers)
        )
    )
    assert mpp == single
    sizes, facts, weights = mpp
    assert sizes[0] == 4 and facts == EXPECTED_CLOSURE and len(weights) == 8


def test_failed_add_rules_batch_leaves_nothing_behind(tmp_path):
    """A snapshot's KB is validate=False, so a malformed rule is first
    rejected by the relational load — after `good`, earlier in the same
    batch, was classified.  The failure must not mark `good` as stored
    (it never was) or leave either rule in the KB."""
    kb = paper_kb()
    good = kb.rules.pop(2)  # grow_up_in <- born_in over (Writer, Place)
    three_atom_body = HornClause.make(
        Atom("located_in", ("x", "y")),
        [
            Atom("born_in", ("z", "x")),
            Atom("born_in", ("z", "y")),
            Atom("live_in", ("z", "y")),
        ],
        0.5,
        {"x": "Place", "y": "City", "z": "Writer"},
    )
    with ProbKB(kb) as cold:
        cold.ground()
        path = save_snapshot(cold, str(tmp_path / "kb.json"))
    with load_snapshot(path) as system:
        rules_before = len(system.kb.rules)
        m1_before = system.backend.table_size("M1")
        with pytest.warns(AnalysisWarning), pytest.raises(ClauseError):
            system.add_rules([good, three_atom_body])
        assert len(system.kb.rules) == rules_before
        assert system.backend.table_size("M1") == m1_before

        system.add_rules([good])
        assert system.kb.rules[-1] == good
        assert system.backend.table_size("M1") == m1_before + 1
        assert triples(system) == EXPECTED_CLOSURE
        rkb = system.rkb
        assert system.backend.project("DR", ("id", "name")) == rkb.relations.rows()
        assert system.backend.project("DC", ("id", "name")) == rkb.classes.rows()


@pytest.mark.parametrize("backend", ["single", "mpp"])
def test_evidence_names_reach_the_dictionary_tables(backend):
    """A name first seen in evidence gets its DE / DC / DR row, so every
    TΠ id decodes through the dictionary tables (as export_sqlite needs)."""
    with ProbKB(paper_kb(), backend=backend) as system:
        system.ground()
        system.add_evidence(
            [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.9)]
        )
        rkb = system.rkb
        for table, dictionary in (
            ("DE", rkb.entities), ("DC", rkb.classes), ("DR", rkb.relations)
        ):
            rows = sorted(system.backend.project(table, ("id", "name")))
            assert rows == dictionary.rows()
        entity_ids = {row[0] for row in system.backend.project("DE", ("id",))}
        for _, x, y in system.backend.project("TP", ("I", "x", "y")):
            assert {x, y} <= entity_ids
