"""Ablation: batch rule application vs per-rule queries on the SAME
engine.

Table 3 and Figure 6 compare full systems; this ablation isolates the
paper's core claim — O(k) batch queries beat O(n) per-rule queries —
by holding the engine constant (our single-node engine) and counting
the statements each strategy issues.  Our batch round goes one step
further than the paper's k queries: every partition's Query 1-i is
staged by one INSERT over their union, so a round is three statements
(truncate the staging table, stage, merge) for any k.
"""


from repro import GroundingConfig, ProbKB, TuffyT
from repro.datasets import s1_kb

from reporting import format_table, scaled, write_result

RULE_COUNTS = [200, 1000, 4000]


def test_ablation_batching(reverb_kb, benchmark):
    counts = [scaled(n) for n in RULE_COUNTS]

    def workload():
        rows = []
        for n_rules in counts:
            kb = s1_kb(reverb_kb, n_rules, seed=2)

            system = ProbKB(kb, grounding=GroundingConfig(apply_constraints=False))
            queries_before = system.backend.db.clock.queries
            system.grounder.ground_atoms_iteration(1)
            batch_queries = system.backend.db.clock.queries - queries_before

            tuffy = TuffyT(kb)
            queries_before = tuffy.db.clock.queries
            tuffy.ground_atoms_iteration(1)
            perrule_queries = tuffy.db.clock.queries - queries_before

            rows.append((n_rules, batch_queries, perrule_queries))
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    report = format_table(
        ["# rules", "batch queries/iter", "per-rule queries/iter"],
        rows,
        title=(
            "Ablation: statements per grounding iteration — batch (ProbKB) "
            "is 3 (truncate, one staging INSERT for all k≤6 partitions, "
            "merge), per-rule (Tuffy) is O(n rules).\n"
            "Paper: 6 queries vs 30,912 for the Sherlock MLN."
        ),
    )
    write_result("ablation_batching", report)

    for n_rules, batch, perrule in rows:
        assert batch <= 8  # at most the paper's 6 partition queries + merge bookkeeping
        assert perrule >= n_rules  # one SELECT per rule at minimum
    # batch query count does not grow with the rule count
    assert rows[0][1] == rows[-1][1]
