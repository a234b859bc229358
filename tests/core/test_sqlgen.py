"""SQL generation tests: every partition's Query 1-i and 2-i, and a
round's union of them, runs under sqlite3 and agrees with our engine;
Query 3 likewise."""

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
from repro.core.sqlgen import ground_atoms_plans, ground_factors_plans
from repro.datasets import paper_kb
from repro.relational import Scan, SqliteMirror, UnionAll, to_sql


def all_partitions_kb():
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
    return KnowledgeBase(
        classes={"T": set(entities)},
        relations=[Relation(r, "T", "T") for r in relations],
        facts=facts,
        rules=rules,
        constraints=[FunctionalConstraint("r0", arg=1, degree=1)],
    )


@pytest.fixture(scope="module")
def system():
    return ProbKB(all_partitions_kb(), grounding=GroundingConfig(apply_constraints=False))


@pytest.fixture(scope="module")
def paper_loaded():
    """The paper KB (partitions 1 and 3) before grounding: Query 1 has
    candidates to stage."""
    return ProbKB(paper_kb())


@pytest.fixture(scope="module")
def paper_grounded():
    """The paper KB after grounding: Query 2 has factors to find."""
    probkb = ProbKB(paper_kb())
    probkb.ground()
    return probkb


def middle_id(probkb):
    """A ``since`` with TΠ facts on either side of it."""
    return probkb.rkb.next_fact_id // 2


@pytest.mark.parametrize("partition", PARTITION_INDEXES)
def test_query1_sqlite_conformance(system, partition):
    plan = ground_atoms_plan(partition, system.backend, mln_alias=f"M{partition}")
    ours = system.backend.query(plan).sorted_rows()
    with SqliteMirror(system.backend.db, tables=["TP", f"M{partition}"]) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


@pytest.mark.parametrize("case", [*PARTITION_INDEXES, "round", "round-since"])
def test_query2_sqlite_conformance(request, case):
    """Query 2-i of each partition, and Query 2 as one union over the
    paper KB: every factor, and the new ones since a middle id."""
    if case in PARTITION_INDEXES:
        probkb = request.getfixturevalue("system")
        plan = ground_factors_plan(case, probkb.backend, mln_alias=f"M{case}")
    else:
        probkb = request.getfixturevalue("paper_grounded")
        since = None if case == "round" else middle_id(probkb)
        plan = UnionAll(
            ground_factors_plans(probkb.rkb.nonempty_partitions, probkb.backend, since)
        )
    ours = probkb.backend.query(plan).sorted_rows()
    with SqliteMirror(probkb.backend.db) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs
    assert ours or case in PARTITION_INDEXES


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


@pytest.mark.parametrize("case", ["partition-1", "round", "round-since"])
def test_guarded_merge_sql_conformance(request, case):
    """The NOT EXISTS anti-join guard renders to real SQL too: on one
    Query 1-i, and on each plan of a round's staging union over the
    paper KB (naive, and semi-naive from a middle id)."""
    if case == "partition-1":
        probkb = request.getfixturevalue("system")
        plan = probkb.rkb.guard_candidates(
            ground_atoms_plan(1, probkb.backend, mln_alias="M1")
        )
    else:
        probkb = request.getfixturevalue("paper_loaded")
        since = None if case == "round" else middle_id(probkb)
        plans = ground_atoms_plans(probkb.rkb.nonempty_partitions, probkb.backend, since)
        plan = UnionAll([probkb.rkb.guard_candidates(each) for each in plans])
    ours = probkb.backend.query(plan).sorted_rows()
    with SqliteMirror(probkb.backend.db) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs
    assert ours or case == "partition-1"


@pytest.mark.parametrize("semi_naive", [False, True], ids=["naive", "semi-naive"])
def test_one_union_stages_what_the_plans_stage_one_by_one(semi_naive):
    """Staging a round's plans as one union gives TΠ the rows and ids
    that staging them one statement each, in the same order, gives:
    TNew's first writer wins in union order."""
    by_plan, at_once = (
        ProbKB(all_partitions_kb(), grounding=GroundingConfig(apply_constraints=False))
        for _ in range(2)
    )
    for _ in range(3):
        staged = []
        for probkb in (by_plan, at_once):
            rkb = probkb.rkb
            since = rkb.delta_start if semi_naive else None
            plans = ground_atoms_plans(rkb.nonempty_partitions, probkb.backend, since)
            probkb.backend.truncate("TNew")
            if probkb is by_plan:
                staged.append(sum(rkb.stage_candidates([plan]) for plan in plans))
            else:
                staged.append(rkb.stage_candidates(plans))
            rkb.merge_staged()
        assert staged[0] == staged[1] > 0
        assert by_plan.backend.query(Scan("TP")).rows == at_once.backend.query(
            Scan("TP")
        ).rows


def test_query_count_per_iteration_is_constant(system):
    """Three statements per iteration, whatever the rule or partition
    count."""
    clock = system.backend.db.clock
    system.grounder.ground_atoms_iteration(1)
    before = clock.queries
    system.grounder.ground_atoms_iteration(2)
    per_iteration = clock.queries - before
    # truncate (TNew) + one staging insert for every partition + the merge
    assert per_iteration == 3


def test_generated_sql_smoke(system):
    sql = system.generated_sql()
    assert any("JOIN" in text or "FROM" in text for text in sql.values())
    assert "Query 3 (type I subquery)" in sql
    assert "HAVING" in sql["Query 3 (type I subquery)"]
