"""Figure 7(a) + Table 4: precision of inferred facts under the six
quality-control configurations.

Runs the Section 6.2 protocol on the generated ReVerb-Sherlock KB:
iterate grounding, judge each iteration's new facts with the oracle
(standing in for the paper's two human judges), and report precision
vs the estimated number of correct facts.
"""


from repro.quality import run_figure7a

from reporting import format_series, format_table, write_result

#: the paper's reported endpoints (#facts inferred, precision)
PAPER_ENDPOINTS = {
    "no-SC no-RC": (4800, 0.14),
    "no-SC RC top 10%": (9962, 0.72),
    "SC no-RC": (23164, 0.55),
    "SC RC top 50%": (22654, 0.65),
    "SC RC top 20%": (16394, 0.75),
}


def test_fig7a_quality(reverb_kb, benchmark):
    results = benchmark.pedantic(
        lambda: run_figure7a(reverb_kb, max_iterations=12, explosion_cap=300_000),
        rounds=1,
        iterations=1,
    )

    rows = []
    lines = []
    by_label = {}
    for result in results:
        label = result.config.describe()
        by_label[label] = result
        paper = PAPER_ENDPOINTS.get(label)
        rows.append(
            (
                label,
                result.total_new_facts,
                round(result.estimated_correct),
                f"{result.overall_precision:.2f}",
                f"{paper[1]:.2f}" if paper else "-",
                "yes" if result.exploded else "no",
            )
        )
        lines.append(
            format_series(
                label, result.series(), "est. correct facts", "precision"
            )
        )
    table = format_table(
        ["config", "# inferred", "est. correct", "precision", "paper prec.", "exploded"],
        rows,
        title="Figure 7(a)/Table 4: precision under quality control",
    )
    write_result("fig7a_quality", table + "\n\n" + "\n".join(lines))

    base = by_label["no-SC no-RC"]
    # every quality-control configuration beats the raw run on precision
    for label, result in by_label.items():
        if label != "no-SC no-RC":
            assert result.overall_precision > base.overall_precision
    # the no-QC precision decays as errors propagate (paper: drops fast)
    assert base.points[-1].precision < base.points[0].precision
    # constraints preserve recall better than aggressive rule cleaning
    assert (
        by_label["SC no-RC"].estimated_correct
        > by_label["no-SC RC top 10%"].estimated_correct
    )
