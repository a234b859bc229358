"""Ablation: MPP speedup vs segment count.

Section 6.1.3 notes the speedup is "not perfectly linear with the
number of segments (32)" because intermediate results must be
re-shipped.  This ablation sweeps the segment count on a fixed S2
workload and reports the speedup curve and its parallel efficiency.
"""


from repro.core import MPPBackend
from repro.datasets import s2_kb

from bench_fig6a_vary_rules import ground_once_probkb
from reporting import format_table, scaled, write_result

SEGMENTS = [1, 2, 4, 8, 16]


def test_ablation_segments(reverb_kb, benchmark):
    kb = s2_kb(reverb_kb, scaled(20000), seed=3)

    def workload():
        rows = []
        base_seconds = None
        for nseg in SEGMENTS:
            seconds, _ = ground_once_probkb(
                kb, MPPBackend(nseg=nseg, use_matviews=True)
            )
            if base_seconds is None:
                base_seconds = seconds
            speedup = base_seconds / seconds
            rows.append((nseg, seconds, speedup, speedup / nseg))
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    report = format_table(
        ["segments", "seconds", "speedup", "efficiency"],
        rows,
        title="Ablation: ProbKB-p grounding time vs segment count (S2 workload)",
    )
    write_result("ablation_segments", report)

    seconds = [row[1] for row in rows]
    # more segments help...
    assert seconds[-1] < seconds[0]
    # ...but sub-linearly: motions (data dependencies) cap the speedup
    final_speedup = rows[-1][2]
    assert 1.0 < final_speedup < SEGMENTS[-1]
