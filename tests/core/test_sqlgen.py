"""SQL generation tests: every partition's Query 1-i and 2-i runs under
sqlite3 and agrees with our engine; Query 3 likewise."""

import random

import pytest

from repro import (
    Fact,
    FunctionalConstraint,
    GroundingConfig,
    KnowledgeBase,
    ProbKB,
    Relation,
)
from repro.core import (
    PARTITION_INDEXES,
    apply_constraints_key_plan,
    clause_from_identifier,
    ground_atoms_plan,
    ground_factors_plan,
    singleton_factors_plan,
)
from repro.relational import SqliteMirror, to_sql


@pytest.fixture(scope="module")
def system():
    """A KB with at least one rule in EVERY partition."""
    rng = random.Random(3)
    entities = [f"e{i}" for i in range(30)]
    relations = [f"r{i}" for i in range(6)]
    facts = []
    seen = set()
    while len(facts) < 150:
        key = (rng.choice(relations), rng.choice(entities), rng.choice(entities))
        if key in seen:
            continue
        seen.add(key)
        facts.append(Fact(key[0], key[1], "T", key[2], "T", round(rng.uniform(0.2, 1), 2)))
    rules = []
    for partition in PARTITION_INDEXES:
        arity = 2 if partition in (1, 2) else 3
        rules.append(
            clause_from_identifier(
                partition,
                tuple(rng.choice(relations) for _ in range(arity - (0 if arity == 2 else 0)))[: arity],
                ("T",) * (2 if partition in (1, 2) else 3),
                weight=round(rng.uniform(0.2, 2), 2),
            )
        )
    kb = KnowledgeBase(
        classes={"T": set(entities)},
        relations=[Relation(r, "T", "T") for r in relations],
        facts=facts,
        rules=rules,
        constraints=[FunctionalConstraint("r0", arg=1, degree=1)],
    )
    return ProbKB(kb, grounding=GroundingConfig(apply_constraints=False))


@pytest.mark.parametrize("partition", PARTITION_INDEXES)
def test_query1_sqlite_conformance(system, partition):
    plan = ground_atoms_plan(partition, system.backend, mln_alias=f"M{partition}")
    ours = system.backend.query(plan).sorted_rows()
    with SqliteMirror(system.backend.db, tables=["TP", f"M{partition}"]) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


@pytest.mark.parametrize("partition", PARTITION_INDEXES)
def test_query2_sqlite_conformance(system, partition):
    plan = ground_factors_plan(partition, system.backend, mln_alias=f"M{partition}")
    ours = system.backend.query(plan).sorted_rows()
    with SqliteMirror(system.backend.db, tables=["TP", f"M{partition}"]) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


@pytest.mark.parametrize("ftype", [1, 2])
def test_query3_sqlite_conformance(system, ftype):
    plan = apply_constraints_key_plan(ftype)
    ours = system.backend.query(plan).sorted_rows()
    with SqliteMirror(system.backend.db, tables=["TP", "FC"]) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


def test_singleton_factor_sql(system):
    plan = singleton_factors_plan(system.backend)
    ours = system.backend.query(plan).sorted_rows()
    with SqliteMirror(system.backend.db, tables=["TP"]) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


def test_guarded_merge_sql_conformance(system):
    """The NOT EXISTS anti-join guard renders to real SQL too."""
    plan = system.rkb.guard_candidates(
        ground_atoms_plan(1, system.backend, mln_alias="M1")
    )
    ours = system.backend.query(plan).sorted_rows()
    with SqliteMirror(system.backend.db, tables=["TP", "M1", "TDel"]) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


def test_query_count_per_iteration_is_constant(system):
    """O(k) statements per iteration regardless of rule count."""
    clock = system.backend.db.clock
    system.grounder.ground_atoms_iteration(1)
    before = clock.queries
    system.grounder.ground_atoms_iteration(2)
    per_iteration = clock.queries - before
    # 1 truncate (TNew) + |partitions| staged inserts + the merge:
    # O(k), never O(#rules)
    assert per_iteration == 2 + len(system.rkb.nonempty_partitions)


def test_generated_sql_smoke(system):
    sql = system.generated_sql()
    assert any("JOIN" in text or "FROM" in text for text in sql.values())
    assert "Query 3 (type I subquery)" in sql
    assert "HAVING" in sql["Query 3 (type I subquery)"]
