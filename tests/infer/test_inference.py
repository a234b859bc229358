"""Inference engine tests: Gibbs and BP validated against exact
enumeration on small graphs, plus structural/diagnostic checks."""

import math
import random
import warnings

import pytest

from repro import InferenceConfig, ProbKB
from repro.datasets import paper_kb
from repro.infer import (
    FactorGraph,
    GibbsSampler,
    bp_marginals,
    exact_map,
    exact_marginals,
    gibbs_marginals,
)


def single_fact_graph(weight=1.0):
    graph = FactorGraph()
    graph.add_clause(1, [], weight)
    return graph


def chain_graph():
    """The paper's Figure 2 shape: facts 1,2 with priors; rules derive 3,4,5."""
    graph = FactorGraph()
    graph.add_clause(1, [], 0.96)
    graph.add_clause(2, [], 0.93)
    graph.add_clause(3, [1], 1.53)  # live_in <- born_in
    graph.add_clause(4, [2], 1.40)
    graph.add_clause(5, [2, 1], 0.52)  # located_in <- born_in, born_in
    graph.add_clause(5, [4, 3], 0.32)
    return graph


def test_singleton_marginal_matches_logistic():
    # one variable, factor e^w if true: P(true) = e^w / (1 + e^w)
    weight = 0.96
    marginals = exact_marginals(single_fact_graph(weight))
    expected = math.exp(weight) / (1 + math.exp(weight))
    assert marginals[1] == pytest.approx(expected)


def test_clause_factor_semantics():
    graph = FactorGraph()
    factor = graph.add_clause(10, [11, 12], 0.5)
    # body true, head false -> violated
    assert not factor.satisfied([0, 1, 1])
    # body true, head true -> satisfied
    assert factor.satisfied([1, 1, 1])
    # body false -> vacuously satisfied regardless of head
    assert factor.satisfied([0, 0, 1])
    assert factor.satisfied([1, 1, 0])


def test_infinite_weight_rejected():
    graph = FactorGraph()
    with pytest.raises(ValueError):
        graph.add_clause(1, [2], math.inf)


def test_rule_raises_head_probability():
    """A derived fact should be more probable when its body is likely."""
    weak = FactorGraph()
    weak.add_clause(1, [], -2.0)  # body unlikely
    weak.add_clause(2, [1], 2.0)
    strong = FactorGraph()
    strong.add_clause(1, [], 2.0)  # body likely
    strong.add_clause(2, [1], 2.0)
    assert exact_marginals(strong)[2] > exact_marginals(weak)[2]


def test_gibbs_matches_exact_on_chain():
    graph = chain_graph()
    exact = exact_marginals(graph)
    approx = gibbs_marginals(graph, num_sweeps=4000, seed=7)
    for var, p in exact.items():
        assert approx[var] == pytest.approx(p, abs=0.05)


def test_bp_matches_exact_on_tree():
    graph = FactorGraph()
    graph.add_clause(1, [], 0.8)
    graph.add_clause(2, [1], 1.2)
    graph.add_clause(3, [2], 0.5)
    exact = exact_marginals(graph)
    result = bp_marginals(graph, max_iterations=200)
    assert result.converged
    for var, p in exact.items():
        assert result.marginals[var] == pytest.approx(p, abs=0.02)


def test_bp_close_on_loopy_graph():
    graph = chain_graph()
    exact = exact_marginals(graph)
    result = bp_marginals(graph, max_iterations=300)
    for var, p in exact.items():
        assert result.marginals[var] == pytest.approx(p, abs=0.08)


def frustrated_triangle_rows(a, b, c):
    """Three facts that each want to be true (+5) but penalise every
    pair being true together (-10 per direction): damped loopy BP
    oscillates on this loop instead of converging."""
    pairs = [(a, b), (b, c), (c, a)]
    rows = [(x, y, None, -10.0) for p, q in pairs for x, y in ((p, q), (q, p))]
    return rows + [(var, None, None, 5.0) for var in (a, b, c)]


BP = InferenceConfig(engine="bp")


def system_with_factors(make_rows):
    """The grounded paper KB, its ``infer`` handed the factor table
    ``make_rows`` builds over the KB's first three fact ids."""
    system = ProbKB(paper_kb(), inference=BP)
    system.ground()
    ids = sorted(row[0] for row in system.backend.project("TP", ("I",)))[:3]
    rows = make_rows(*ids)
    system.factor_rows = lambda: rows
    return system, rows


def test_bp_engine_warns_when_it_does_not_converge():
    system, rows = system_with_factors(frustrated_triangle_rows)
    reference = bp_marginals(FactorGraph.from_factor_rows(rows))
    assert not reference.converged
    with pytest.warns(RuntimeWarning) as caught:
        marginals = system.infer()
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "did not converge in 100 iterations" in message
    assert f"final residual {reference.max_residual:.3g}" in message
    assert len(marginals) == 3
    assert system.inference_info()["converged"] is False


def test_bp_engine_is_silent_when_it_converges():
    system, _ = system_with_factors(
        lambda a, b, c: [(a, None, None, 0.8), (b, a, None, 1.2)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        marginals = system.infer()
    assert len(marginals) == 2
    assert system.inference_info()["converged"] is True


def test_chromatic_coloring_is_valid():
    graph = chain_graph()
    sampler = GibbsSampler(graph, seed=0)
    neighbors = graph.neighbors()
    for color_class in sampler._colors:
        class_set = set(color_class)
        for var in color_class:
            assert class_set.isdisjoint(neighbors[var])


def clause_graph(num_variables, clauses):
    graph = FactorGraph()
    for var in range(num_variables):
        graph.variable(var)
    for head, body in clauses:
        graph.add_clause(head, body, 1.0)
    return graph


@pytest.mark.parametrize(
    "num_variables, clauses, expected",
    [
        # triangle 0-1-2 with 3 pendant on 2: 2 has the largest degree
        (4, [(0, [1, 2]), (3, [2])], [[2], [0, 3], [1]]),
        # star centred on 0
        (5, [(0, [1]), (0, [2]), (0, [3]), (0, [4])], [[0], [1, 2, 3, 4]]),
        # two disjoint edges: all degrees tie, index order decides
        (4, [(0, [1]), (2, [3])], [[0, 2], [1, 3]]),
    ],
    ids=["triangle_with_pendant", "star", "two_disjoint_edges"],
)
def test_color_classes_are_greedy_largest_first(num_variables, clauses, expected):
    """The classes fix the sweep order and the draw keys, so the rule is
    pinned literally (captured from the networkx-backed colouring)."""
    assert GibbsSampler(clause_graph(num_variables, clauses))._colors == expected


def test_color_classes_equal_networkx_largest_first():
    nx = pytest.importorskip("networkx")
    rng = random.Random(24)
    for _ in range(250):
        n = rng.randint(1, 30)
        clauses = [
            (rng.randrange(n), [rng.randrange(n) for _ in range(rng.randint(0, 2))])
            for _ in range(rng.randint(0, 3 * n))
        ]
        graph = clause_graph(n, clauses)
        markov = nx.Graph()
        markov.add_nodes_from(range(n))
        for var, others in enumerate(graph.neighbors()):
            markov.add_edges_from((var, other) for other in others)
        coloring = nx.greedy_color(markov, strategy="largest_first")
        classes = {}
        for var, color in coloring.items():
            classes.setdefault(color, []).append(var)
        assert GibbsSampler(graph)._colors == [
            sorted(classes[color]) for color in sorted(classes)
        ]


def test_gibbs_deterministic_for_seed():
    graph = chain_graph()
    first = gibbs_marginals(graph, num_sweeps=100, seed=42)
    second = gibbs_marginals(graph, num_sweeps=100, seed=42)
    assert first == second


def test_exact_map_prefers_satisfying_world():
    graph = FactorGraph()
    graph.add_clause(1, [], 3.0)
    graph.add_clause(2, [1], 3.0)
    assignment = exact_map(graph)
    assert assignment == {1: 1, 2: 1}


def test_exact_rejects_large_graphs():
    graph = FactorGraph()
    for i in range(30):
        graph.add_clause(i, [], 0.1)
    with pytest.raises(ValueError):
        exact_marginals(graph)


def test_empty_graph():
    graph = FactorGraph()
    assert exact_marginals(graph) == {}
    assert gibbs_marginals(graph) == {}
    assert bp_marginals(graph).marginals == {}


def test_from_factor_rows_with_nulls():
    rows = [(1, None, None, 0.9), (2, 1, None, 1.1), (3, 1, 2, 0.3)]
    graph = FactorGraph.from_factor_rows(rows)
    assert graph.num_variables == 3
    assert graph.num_factors == 3
    assert graph.factors[0].body == ()
    assert len(graph.factors[2].body) == 2


def test_multichain_diagnostics_converge_on_chain_graph():
    from repro.infer import exact_marginals, gibbs_with_diagnostics

    graph = chain_graph()
    diagnostics = gibbs_with_diagnostics(graph, num_chains=4, num_sweeps=1500, seed=2)
    assert diagnostics.converged(threshold=1.1)
    exact = exact_marginals(graph)
    for var, p in exact.items():
        assert diagnostics.marginals[var] == pytest.approx(p, abs=0.06)


def test_multichain_diagnostics_shapes():
    from repro.infer import gibbs_with_diagnostics

    graph = chain_graph()
    diagnostics = gibbs_with_diagnostics(graph, num_chains=3, num_sweeps=50, seed=0)
    assert set(diagnostics.marginals) == set(diagnostics.r_hat)
    assert diagnostics.num_chains == 3
    assert diagnostics.max_r_hat >= 1.0


def test_multichain_empty_graph():
    from repro.infer import FactorGraph, gibbs_with_diagnostics

    diagnostics = gibbs_with_diagnostics(FactorGraph())
    assert diagnostics.marginals == {} and diagnostics.converged()
