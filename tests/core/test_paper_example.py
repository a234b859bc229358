"""End-to-end grounding of the paper's Table 1 example, validated
against the expected contents of Figure 3 on every backend."""

import pytest

from repro import InferenceConfig, ProbKB, TuffyT
from repro.core import MPPBackend, SingleNodeBackend

from .paper_example import EXPECTED_CLOSURE, EXPECTED_FACTORS, paper_kb

BACKENDS = {
    "single": lambda: SingleNodeBackend(),
    "mpp": lambda: MPPBackend(nseg=4, use_matviews=True),
    "mpp-naive": lambda: MPPBackend(nseg=4, use_matviews=False),
}


def fact_triple(fact):
    return (fact.relation, fact.subject, fact.object)


@pytest.fixture(params=sorted(BACKENDS))
def system(request):
    return ProbKB(paper_kb(), backend=BACKENDS[request.param]())


def test_closure_matches_figure3(system):
    result = system.ground()
    assert result.converged
    assert {fact_triple(f) for f in system.all_facts()} == EXPECTED_CLOSURE


def test_closure_reached_in_one_productive_iteration(system):
    """Algorithm 1 applies *all* partitions each iteration, so both the
    M1 facts and the born_in-derived located_in fact arrive in iteration
    1 (the paper's Example 4 narrates M1 and M3 separately for clarity,
    but notes all M_i are applied each iteration)."""
    result = system.ground()
    productive = [it for it in result.iterations if it.new_facts > 0]
    assert len(productive) == 1
    assert productive[0].new_facts == 5
    # iteration 2 re-derives located_in via live_in but adds nothing new
    assert len(result.iterations) == 2 and result.converged


def test_factors_match_figure3(system):
    system.ground()
    by_id = {row[0]: fact_triple(system.rkb.decode_fact(row))
             for row in system.backend.query(__import__("repro.relational", fromlist=["Scan"]).Scan("TP")).rows}
    factors = set()
    for i1, i2, i3, w in system.factor_rows():
        body = frozenset(by_id[i] for i in (i2, i3) if i is not None)
        factors.add((by_id[i1], body, round(w, 2)))
    assert factors == EXPECTED_FACTORS


def test_factor_count_is_eight(system):
    result = system.ground()
    assert result.factors == len(EXPECTED_FACTORS)
    assert system.factor_count() == len(EXPECTED_FACTORS)


def test_tuffy_t_derives_identical_facts():
    """Tuffy-T (per-rule queries) and ProbKB (batch) must agree."""
    probkb = ProbKB(paper_kb(), backend="single")
    probkb.ground()
    tuffy = TuffyT(paper_kb())
    tuffy.run()
    assert {fact_triple(f) for f in tuffy.all_facts()} == EXPECTED_CLOSURE
    assert tuffy.fact_count() == probkb.fact_count()


def test_tuffy_t_factors_match():
    tuffy = TuffyT(paper_kb())
    tuffy.run()
    by_id = {}
    for _fact_obj in tuffy.all_facts():
        pass  # ids not exposed; compare counts instead
    assert tuffy.db.table("TF").rows
    assert len(tuffy.db.table("TF")) == len(EXPECTED_FACTORS)


def test_tuffy_uses_many_more_statements():
    probkb = ProbKB(paper_kb(), backend="single")
    probkb.ground(max_iterations=2)
    tuffy = TuffyT(paper_kb())
    tuffy.run(max_iterations=2)
    # 6 rules -> only 2 nonempty partitions for ProbKB
    assert probkb.rkb.nonempty_partitions == [1, 3]


def test_marginal_inference_end_to_end():
    system = ProbKB(paper_kb(), backend="single")
    system.ground()
    marginals = system.infer(InferenceConfig(sweeps=3000, seed=3))
    probabilities = {fact_triple(f): p for f, p in marginals.items()}
    # exact marginals (see repro.infer.exact): born_in(RG, NYC) = 0.511,
    # located_in(Br, NYC) = 0.556 — Gibbs should land close
    assert probabilities[("born_in", "Ruth Gruber", "New York City")] == pytest.approx(
        0.511, abs=0.05
    )
    assert probabilities[
        ("located_in", "Brooklyn", "New York City")
    ] == pytest.approx(0.556, abs=0.05)


def test_generated_sql_runs_on_sqlite():
    """The emitted SQL must be real SQL: run Query 1-1 under sqlite3
    and compare with our engine's output."""
    from repro.core import ground_atoms_plan
    from repro.relational import SqliteMirror, to_sql

    system = ProbKB(paper_kb(), backend="single")
    plan = ground_atoms_plan(1, system.backend, mln_alias="M1")
    ours = system.backend.query(plan).sorted_rows()
    with SqliteMirror(system.backend.db, tables=["TP", "M1"]) as mirror:
        theirs = mirror.run_sorted(to_sql(plan))
    assert ours == theirs


def test_generated_sql_query13_matches_paper_shape():
    system = ProbKB(paper_kb(), backend="single")
    sql = system.generated_sql()["Query 1-3"]
    assert "M3" in sql and "T2" in sql and "T3" in sql
    assert "T2.x = T3.x" in sql
