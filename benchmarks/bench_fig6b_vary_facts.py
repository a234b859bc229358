"""Figure 6(b): grounding time vs number of facts (S2).

Sweeps the fact count with the rule set fixed.  All three systems grow
with the data size, but Tuffy-T keeps paying its per-rule query
overhead while ProbKB amortizes it over six batch joins; ProbKB-p
divides the scan/join work across segments.
"""


from repro import ProbKB
from repro.core import MPPBackend
from repro.datasets import s2_kb

from bench_fig6a_vary_rules import ground_once_probkb, ground_once_tuffy
from reporting import format_series, format_table, scaled, write_result

FACT_COUNTS = [4000, 10000, 25000, 60000]


def test_fig6b_vary_facts(reverb_kb, benchmark):
    counts = [scaled(n) for n in FACT_COUNTS]

    def workload():
        rows = []
        series = {"Tuffy-T": [], "ProbKB": [], "ProbKB-p": []}
        for n_facts in counts:
            kb = s2_kb(reverb_kb, n_facts, seed=1)
            tuffy_s, inferred = ground_once_tuffy(kb)
            single_s, _ = ground_once_probkb(kb, "single")
            mpp_s, _ = ground_once_probkb(kb, MPPBackend(nseg=8))
            rows.append((n_facts, tuffy_s, single_s, mpp_s, inferred))
            series["Tuffy-T"].append((n_facts, tuffy_s))
            series["ProbKB"].append((n_facts, single_s))
            series["ProbKB-p"].append((n_facts, mpp_s))
        return rows, series

    rows, series = benchmark.pedantic(workload, rounds=1, iterations=1)

    table = format_table(
        ["# facts", "Tuffy-T (s)", "ProbKB (s)", "ProbKB-p (s)", "# inferred"],
        rows,
        title="Figure 6(b): grounding time vs # facts (S2, first iteration; modelled seconds)",
    )
    lines = [table, ""]
    for name, points in series.items():
        lines.append(format_series(name, points, "# facts", "seconds"))
    lines.append("paper @10M facts: speed-up of 237x for ProbKB-p over Tuffy-T")
    write_result("fig6b_vary_facts", "\n".join(lines))

    last = rows[-1]
    assert last[3] < last[2] < last[1]  # ProbKB-p < ProbKB < Tuffy-T
    speedup = last[1] / last[3]
    assert speedup > 5, f"expected a large ProbKB-p speedup, got {speedup:.1f}x"
