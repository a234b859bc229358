"""Figure 7(b): distribution of error sources behind constraint
violations.

Grounds the KB without quality control, finds every functional-
constraint violation (Query 3's subquery), and categorizes each one
against the generator's ground truth — the reproduction of the paper's
hand-audit of 100 sampled violations.
"""


from repro import GroundingConfig, ProbKB
from repro.quality import CATEGORY_LABELS, categorize_violations

from reporting import format_table, write_result

PAPER_DISTRIBUTION = {
    "ambiguity_detected": 0.34,
    "ambiguous_join_key": 0.24,
    "incorrect_rule": 0.33,
    "incorrect_extraction": 0.06,
    "general_types": 0.02,
    "synonyms": 0.01,
    "other": 0.00,
}


def test_fig7b_error_sources(reverb_kb, benchmark):
    def workload():
        system = ProbKB(
            reverb_kb.kb, grounding=GroundingConfig(apply_constraints=False)
        )
        system.ground(max_iterations=2)
        return categorize_violations(system, reverb_kb)

    audit = benchmark.pedantic(workload, rounds=1, iterations=1)
    distribution = audit.distribution()
    counts = audit.counts()

    rows = [
        (
            CATEGORY_LABELS[category],
            counts[category],
            f"{100 * distribution[category]:.0f}%",
            f"{100 * PAPER_DISTRIBUTION[category]:.0f}%",
        )
        for category in CATEGORY_LABELS
    ]
    report = format_table(
        ["error source", "violations", "ours", "paper"],
        rows,
        title=f"Figure 7(b): error sources behind {audit.total} constraint violations",
    )
    write_result("fig7b_error_sources", report)

    assert audit.total > 50
    # the paper's two dominant sources dominate here too
    assert distribution["ambiguity_detected"] >= 0.15
    assert distribution["incorrect_rule"] >= 0.15
    assert (
        distribution["ambiguity_detected"]
        + distribution["incorrect_rule"]
        + distribution["ambiguous_join_key"]
        > 0.5
    )
