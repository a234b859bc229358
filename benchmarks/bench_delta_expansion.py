"""Delta expansion vs full re-expansion on the ingest path.

The incremental subsystem's pitch (docs/incremental.md): a flush should
cost O(delta), not O(KB).  This benchmark builds a 10k-evidence-fact KB
whose rule chains keep factor-graph components small (the regime the
component-scoped re-sampler is designed for), then lands deltas of 1,
10, and 100 fresh facts through both paths:

``delta``
    A primed :class:`repro.delta.DeltaExpander` — semi-naive delta
    grounding, delta factor joins, re-sample only touched components,
    splice into the stored marginals.
``full``
    The pre-existing path — ``add_evidence`` (atom closure is already
    semi-naive, but TΦ is rebuilt) followed by a componentwise re-sample
    of the whole graph.

Both paths produce bit-identical marginals (asserted); the table
reports wall-clock per flush and the speedup.  The acceptance floor is
5x for single-fact deltas.
"""

import time

from repro import Fact, InferenceConfig, KnowledgeBase, ProbKB, Relation
from repro.bench import format_table, scaled, write_result
from repro.core import Atom, HornClause
from repro.delta import DeltaExpander, componentwise_marginals

NUM_SWEEPS = 20
SEED = 7
NUM_CITIES = 50
DELTA_SIZES = (1, 10, 100)


def make_kb(n_facts, n_spare):
    """n_facts born_in facts over small per-person rule chains."""
    people = [f"p{i}" for i in range(n_facts + n_spare)]
    cities = [f"c{i}" for i in range(NUM_CITIES)]
    classes = {"Person": set(people), "City": set(cities)}
    relations = [
        Relation("born_in", "Person", "City"),
        Relation("live_in", "Person", "City"),
        Relation("grow_up_in", "Person", "City"),
    ]
    facts = [
        Fact("born_in", people[i], "Person", cities[i % NUM_CITIES], "City", 0.9)
        for i in range(n_facts)
    ]

    def rule(head, body, weight):
        return HornClause.make(
            Atom(head, ("x", "y")),
            [Atom(body, ("x", "y"))],
            weight,
            {"x": "Person", "y": "City"},
        )

    rules = [rule("live_in", "born_in", 1.2), rule("grow_up_in", "live_in", 0.8)]
    kb = KnowledgeBase(
        classes=classes, relations=relations, facts=facts, rules=rules
    )
    return kb, people, cities


def delta_batches(people, cities, n_facts):
    """Batches of fresh people: DELTA_SIZES[i] facts each, disjoint."""
    batches, cursor = [], n_facts
    for size in DELTA_SIZES:
        batches.append(
            [
                Fact(
                    "born_in",
                    people[cursor + j],
                    "Person",
                    cities[j % NUM_CITIES],
                    "City",
                    0.9,
                )
                for j in range(size)
            ]
        )
        cursor += size
    return batches


def test_bench_delta_expansion(benchmark):
    n_facts = scaled(10000)
    kb, people, cities = make_kb(n_facts, n_spare=sum(DELTA_SIZES))
    batches = delta_batches(people, cities, n_facts)

    def workload():
        # -- delta path: one primed expander absorbing each flush -----
        system = ProbKB(make_kb(n_facts, sum(DELTA_SIZES))[0], backend="single")
        system.ground()
        expander = DeltaExpander(
            system, inference=InferenceConfig(sweeps=NUM_SWEEPS, seed=SEED)
        )
        expander.prime()
        delta_rows = []
        for batch in batches:
            started = time.perf_counter()
            result = expander.expand_delta(batch)
            delta_rows.append(
                (
                    len(batch),
                    time.perf_counter() - started,
                    result.touched_components,
                    result.resampled_variables,
                )
            )

        # -- full path: add_evidence + whole-graph re-sample ----------
        reference = ProbKB(kb, backend="single")
        reference.ground()
        full_seconds = []
        for batch in batches:
            started = time.perf_counter()
            reference.add_evidence(batch)
            marginals = componentwise_marginals(
                reference.factor_rows(), NUM_SWEEPS, SEED
            )
            full_seconds.append(time.perf_counter() - started)
        return system, expander, delta_rows, full_seconds, marginals

    system, expander, delta_rows, full_seconds, full_marginals = (
        benchmark.pedantic(workload, rounds=1, iterations=1)
    )

    # both paths converge to bit-identical marginals over the final KB
    assert expander.marginals == full_marginals

    rows = []
    speedups = []
    for (size, delta_s, components, resampled), full_s in zip(
        delta_rows, full_seconds
    ):
        speedup = full_s / max(delta_s, 1e-9)
        speedups.append(speedup)
        rows.append(
            (
                size,
                delta_s * 1e3,
                full_s * 1e3,
                f"{speedup:.1f}x",
                components,
                resampled,
            )
        )
    report = format_table(
        [
            "delta facts",
            "delta (ms)",
            "full (ms)",
            "speedup",
            "components",
            "resampled vars",
        ],
        rows,
        title=(
            f"Delta vs full expansion on a {system.fact_count()}-fact KB "
            f"({NUM_SWEEPS} sweeps, seed {SEED})"
        ),
    )
    write_result("delta_expansion", report)

    # acceptance: single-fact flushes at least 5x cheaper than full
    assert speedups[0] >= 5.0
