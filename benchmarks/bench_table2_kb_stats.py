"""Table 2: ReVerb-Sherlock KB statistics.

Regenerates the dataset statistics table.  Absolute sizes are scaled to
the benchmark machine; the paper's values are printed alongside so the
ratios (facts ≈ 1.5× entities, rules ≪ relations) can be compared.
"""

from repro.datasets import generate

from conftest import bench_config
from reporting import format_table, write_result

PAPER_STATS = {
    "relations": 82_768,
    "rules": 30_912,
    "entities": 277_216,
    "facts": 407_247,
}


def test_table2_kb_stats(benchmark):
    generated = benchmark.pedantic(
        lambda: generate(bench_config()), rounds=1, iterations=1
    )
    stats = generated.stats()
    rows = []
    for key in ("relations", "rules", "entities", "facts"):
        paper = PAPER_STATS[key]
        ours = stats[key]
        rows.append(
            (
                f"# {key}",
                f"{paper:,}",
                f"{ours:,}",
                f"{paper / PAPER_STATS['entities']:.2f}",
                f"{ours / stats['entities']:.2f}",
            )
        )
    report = format_table(
        ["statistic", "paper", "ours", "paper/|E|", "ours/|E|"],
        rows,
        title="Table 2: ReVerb-Sherlock KB statistics (scaled reproduction)",
    )
    write_result("table2_kb_stats", report)
    assert stats["facts"] > stats["entities"]  # denser facts than entities
    assert stats["rules"] < stats["relations"] * 2
