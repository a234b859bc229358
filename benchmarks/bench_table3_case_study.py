"""Table 3: the ReVerb-Sherlock case study.

Protocol (Section 6.1.1): apply Query 3 once up front, bulkload into
each system, run Query 1 for four iterations, then Query 2; report
per-phase times and result sizes for Tuffy-T, ProbKB (single node) and
ProbKB-p (MPP with redistributed matviews).

Times are the engines' modelled elapsed seconds (cost-model clock: row
work + per-statement overhead + MPP shipping), which is what makes the
query-count effects the paper measures visible inside one process.
"""


from repro import GroundingConfig, ProbKB, TuffyT
from repro.core import MPPBackend
from repro.datasets import ReVerbSherlockConfig, WorldConfig, generate
from repro.quality import precleaned_kb

from reporting import format_table, scaled, write_result

ITERATIONS = 4


def case_study_kb():
    """A mid-size KB whose uncontrolled growth is visible by iteration 4
    (the paper's run also blows up: 592M factors) without exhausting a
    laptop — the sweep benchmarks use the larger shared fixture."""
    config = ReVerbSherlockConfig(
        world=WorldConfig(
            n_countries=8,
            n_cities_per_country=6,
            n_people=scaled(400),
            n_organizations=40,
        ),
        n_bulk_relations=100,
        n_bulk_facts=300,
    )
    return generate(config)

#: Paper's Table 3, in minutes, for orientation.
PAPER_ROWS = {
    "ProbKB-p": (0.25, [0.07, 0.07, 0.15, 0.48], 9.75),
    "ProbKB": (0.03, [0.05, 0.12, 0.23, 1.28], 36.28),
    "Tuffy-T": (18.22, [1.92, 9.40, 22.40, 44.77], 84.07),
}


def run_probkb(kb, backend):
    system = ProbKB(
        kb, backend=backend, grounding=GroundingConfig(apply_constraints=False)
    )
    load = system.load_seconds
    iteration_times = []
    for iteration in range(1, ITERATIONS + 1):
        stats = system.grounder.ground_atoms_iteration(iteration)
        iteration_times.append(stats.seconds)
    factors, factor_seconds = system.grounder.ground_factors()
    return {
        "load": load,
        "iterations": iteration_times,
        "query2": factor_seconds,
        "facts": system.fact_count(),
        "factors": factors,
    }


def run_tuffy(kb):
    tuffy = TuffyT(kb)
    load = tuffy.elapsed_seconds
    iteration_times = []
    for iteration in range(1, ITERATIONS + 1):
        stats = tuffy.ground_atoms_iteration(iteration)
        iteration_times.append(stats.seconds)
    factors, factor_seconds = tuffy.ground_factors()
    return {
        "load": load,
        "iterations": iteration_times,
        "query2": factor_seconds,
        "facts": tuffy.fact_count(),
        "factors": factors,
    }


def test_table3_case_study(benchmark):
    kb = precleaned_kb(case_study_kb().kb)

    def workload():
        return {
            "ProbKB-p": run_probkb(kb, MPPBackend(nseg=8, use_matviews=True)),
            "ProbKB": run_probkb(kb, "single"),
            "Tuffy-T": run_tuffy(kb),
        }

    results = benchmark.pedantic(workload, rounds=1, iterations=1)

    headers = ["system", "load(s)"] + [
        f"Q1 iter{i}(s)" for i in range(1, ITERATIONS + 1)
    ] + ["Q2(s)", "facts", "factors"]
    rows = []
    for name in ("ProbKB-p", "ProbKB", "Tuffy-T"):
        outcome = results[name]
        rows.append(
            [name, outcome["load"]]
            + outcome["iterations"]
            + [outcome["query2"], outcome["facts"], outcome["factors"]]
        )
    paper_rows = [
        [f"paper {name} (min)", load] + iters + [q2, "-", "-"]
        for name, (load, iters, q2) in PAPER_ROWS.items()
    ]
    report = format_table(
        headers,
        rows + paper_rows,
        title="Table 3: ReVerb-Sherlock case study (modelled seconds; paper values in minutes)",
    )
    write_result("table3_case_study", report)

    probkb_p, probkb, tuffy = results["ProbKB-p"], results["ProbKB"], results["Tuffy-T"]
    # every system derives the same knowledge
    assert probkb["facts"] == tuffy["facts"] == probkb_p["facts"]
    assert probkb["factors"] == tuffy["factors"] == probkb_p["factors"]
    # Tuffy's per-relation-table bulkload is far slower; the gap scales
    # with |R| (paper: 607x at 83K relations; ~8x at our ~260)
    assert tuffy["load"] > 5 * probkb["load"]
    # batch rule application beats per-rule queries on every iteration
    for ours, theirs in zip(probkb["iterations"], tuffy["iterations"]):
        assert ours < theirs
    # the MPP backend beats single-node overall (paper: ~4x)
    assert sum(probkb_p["iterations"]) < sum(probkb["iterations"])
    assert probkb_p["query2"] < probkb["query2"]
