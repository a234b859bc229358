"""Ablation: naive (Algorithm 1) vs semi-naive (delta) grounding.

The paper's Algorithm 1 re-joins the *entire* TΠ against every MLN
partition in every iteration; classic Datalog semi-naive evaluation
joins only the facts derived in the previous iteration.  Both reach the
same closure; this ablation quantifies the work saved — an extension
beyond the paper (its future-work discussion of incremental grounding).
"""


from repro import Fact, GroundingConfig, KnowledgeBase, ProbKB, Relation
from repro.core import Atom, HornClause

from reporting import format_table, scaled, write_result


def chain_kb(length):
    """A located_in chain a0 ⊂ a1 ⊂ ... ⊂ aN with a transitivity rule:
    the closure is O(N²) pairs reached over O(log N) iterations — the
    workload where naive evaluation re-derives everything every round."""
    entities = [f"a{i}" for i in range(length)]
    facts = [
        Fact("located_in", entities[i], "Place", entities[i + 1], "Place", 0.9)
        for i in range(length - 1)
    ]
    rule = HornClause.make(
        Atom("located_in", ("x", "y")),
        [Atom("located_in", ("x", "z")), Atom("located_in", ("z", "y"))],
        weight=1.0,
        var_classes={"x": "Place", "y": "Place", "z": "Place"},
    )
    return KnowledgeBase(
        classes={"Place": set(entities)},
        relations=[Relation("located_in", "Place", "Place")],
        facts=facts,
        rules=[rule],
    )


def test_ablation_semi_naive(benchmark):
    kb = chain_kb(scaled(220))

    def run(semi_naive):
        system = ProbKB(kb, grounding=GroundingConfig(semi_naive=semi_naive))
        result = system.ground(max_iterations=30)
        clock = system.backend.db.clock
        return {
            "iterations": len(result.iterations),
            "facts": system.fact_count(),
            "rows_probed": clock.rows_probed,
            "rows_scanned": clock.rows_scanned,
            "seconds": result.atoms_seconds,
        }

    def workload():
        return run(False), run(True)

    naive, delta = benchmark.pedantic(workload, rounds=1, iterations=1)

    rows = [
        ("naive (Algorithm 1)", naive["iterations"], naive["facts"],
         naive["rows_scanned"], naive["rows_probed"], naive["seconds"]),
        ("semi-naive (delta)", delta["iterations"], delta["facts"],
         delta["rows_scanned"], delta["rows_probed"], delta["seconds"]),
    ]
    report = format_table(
        ["strategy", "iters", "facts", "rows scanned", "rows probed", "Q1 time (s)"],
        rows,
        title=(
            "Ablation: naive vs semi-naive grounding to closure "
            f"(probe-work saved: {naive['rows_probed'] / max(1, delta['rows_probed']):.1f}x)"
        ),
    )
    write_result("ablation_semi_naive", report)

    assert delta["facts"] == naive["facts"]  # identical closure
    assert delta["rows_probed"] < naive["rows_probed"]
    assert delta["seconds"] < naive["seconds"]
