"""MLN weight learning by pseudo-likelihood (tied rule weights).

ProbKB takes its rule weights from the rule learner (Sherlock); this
module closes the loop by *learning* the MLN weights from labelled
facts — the standard pseudo-log-likelihood (PLL) approach of Richardson
& Domingos, with one tied parameter per Horn rule.

Pipeline:

1. Ground each rule separately (Query 2-i restricted to one MLN row via
   ``mln_filter``) to obtain ground factors tagged with their rule.
2. Given an observed truth assignment (in tests/benchmarks, the
   generator's oracle provides it), run gradient ascent on

       PLL(w) = Σ_v log P(x_v = obs_v | MB(v); w)

   whose gradient w.r.t. the tied weight w_j is

       Σ_v [ n_j(v, obs_v) − E_{x_v ~ P(·|MB)} n_j(v, x_v) ]

   with n_j(v, val) = number of satisfied groundings of rule j among
   the factors touching v when x_v = val.

Extraction-confidence singleton factors are held fixed (they are
evidence priors, not parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import ProbKB
from ..core.clauses import HornClause, classify_clause
from ..core.sqlgen import ground_factors_plan
from ..infer.factor_graph import FactorGraph
from ..relational.expr import conj, eq_const


@dataclass
class TiedGraph:
    """A ground factor graph whose clause factors are tagged with the
    index of the rule they instantiate (-1 = fixed singleton prior)."""

    graph: FactorGraph
    parameter_of: List[int]
    rules: List[HornClause]

    @property
    def num_parameters(self) -> int:
        return len(self.rules)


@dataclass
class LearningResult:
    weights: List[float]
    pll_trace: List[float] = field(default_factory=list)
    iterations: int = 0


def build_tied_graph(system: ProbKB) -> TiedGraph:
    """Ground every rule separately and build the tagged factor graph.

    One Query 2-i per rule (this is offline training, so the per-rule
    cost the paper avoids at inference time is acceptable here).
    """
    graph = FactorGraph()
    parameter_of: List[int] = []
    rules = list(system.kb.rules)
    rkb = system.rkb
    backend = system.backend

    for rule_index, rule in enumerate(rules):
        classified = classify_clause(rule)
        mln_alias = f"M{classified.partition}"
        conditions = []
        for slot, relation in enumerate(classified.relations):
            conditions.append(
                eq_const(f"{mln_alias}.R{slot + 1}", rkb.relations.id(relation))
            )
        for slot, class_name in enumerate(classified.classes):
            conditions.append(
                eq_const(f"{mln_alias}.C{slot + 1}", rkb.classes.id(class_name))
            )
        plan = ground_factors_plan(
            classified.partition,
            backend,
            mln_alias=mln_alias,
            mln_filter=conj(*conditions),
        )
        for head, body2, body3, _ in backend.query(plan).rows:
            body = [b for b in (body2, body3) if b is not None]
            graph.add_clause(head, body, rule.weight)
            parameter_of.append(rule_index)

    # fixed singleton priors from extraction confidences
    from ..core.sqlgen import singleton_factors_plan

    for head, _, _, weight in backend.query(singleton_factors_plan(backend)).rows:
        graph.add_clause(head, [], weight)
        parameter_of.append(-1)

    return TiedGraph(graph=graph, parameter_of=parameter_of, rules=rules)


def pseudo_log_likelihood(
    tied: TiedGraph,
    observed: Dict[int, int],
    weights: Sequence[float],
) -> float:
    """PLL of the observed assignment under the given tied weights."""
    state = _observed_state(tied.graph, observed)
    touching = tied.graph.factors_touching()
    total = 0.0
    for var in range(tied.graph.num_variables):
        delta = _weighted_delta(tied, touching, state, var, weights)
        # log P(x_v = obs | MB) for a binary variable
        obs = state[var]
        logit = delta if obs == 1 else -delta
        total += -_log1p_exp(-logit)
    return total


def learn_weights(
    tied: TiedGraph,
    observed: Dict[int, int],
    iterations: int = 60,
    learning_rate: float = 0.05,
    l2: float = 0.01,
    min_weight: float = 0.0,
    initial_weights: Optional[Sequence[float]] = None,
) -> LearningResult:
    """Gradient ascent on the pseudo-log-likelihood.

    ``min_weight`` clamps weights from below (Horn rule weights are
    non-negative in the ProbKB setting — a rule either supports its
    head or is useless).
    """
    graph = tied.graph
    state = _observed_state(graph, observed)
    touching = graph.factors_touching()
    n_parameters = tied.num_parameters
    weights = (
        list(initial_weights)
        if initial_weights is not None
        else [1.0] * n_parameters
    )
    trace: List[float] = []

    for _iteration in range(iterations):
        gradient = [0.0] * n_parameters
        for var in range(graph.num_variables):
            counts_true, counts_false, fixed_delta = _rule_counts(
                tied, touching, state, var
            )
            delta = fixed_delta
            for index in counts_true:
                delta += weights[index] * counts_true[index]
            for index in counts_false:
                delta -= weights[index] * counts_false[index]
            p_true = _sigmoid(delta)
            obs = state[var]
            for index in set(counts_true) | set(counts_false):
                n_obs = (
                    counts_true.get(index, 0.0)
                    if obs == 1
                    else counts_false.get(index, 0.0)
                )
                expected = (
                    p_true * counts_true.get(index, 0.0)
                    + (1 - p_true) * counts_false.get(index, 0.0)
                )
                gradient[index] += n_obs - expected
        for index in range(n_parameters):
            gradient[index] -= l2 * weights[index]
            weights[index] = max(
                min_weight, weights[index] + learning_rate * gradient[index]
            )
        trace.append(pseudo_log_likelihood(tied, observed, weights))
    return LearningResult(weights=weights, pll_trace=trace, iterations=iterations)


def observed_from_judge(system: ProbKB, judge) -> Dict[int, int]:
    """Label every stored fact with the oracle judge (1 = acceptable)."""
    labels: Dict[int, int] = {}
    for fact_id, fact in system._facts_by_id().items():
        labels[fact_id] = 1 if judge.is_acceptable(fact) else 0
    return labels


def reweighted_rules(tied: TiedGraph, result: LearningResult) -> List[HornClause]:
    """The rule set with learned weights substituted in."""
    return [
        HornClause(
            head=rule.head,
            body=rule.body,
            weight=round(result.weights[index], 4),
            var_classes=rule.var_classes,
            score=rule.score,
        )
        for index, rule in enumerate(tied.rules)
    ]


# -- internals ----------------------------------------------------------------------


def _observed_state(graph: FactorGraph, observed: Dict[int, int]) -> List[int]:
    state = []
    for var in range(graph.num_variables):
        external = graph.external_id(var)
        state.append(int(observed.get(external, 1)))
    return state


def _rule_counts(
    tied: TiedGraph, touching, state: List[int], var: int
) -> Tuple[Dict[int, float], Dict[int, float], float]:
    """Per-rule satisfied-grounding counts around ``var`` with x_var
    forced to 1 and to 0, plus the fixed-factor delta contribution."""
    counts_true: Dict[int, float] = {}
    counts_false: Dict[int, float] = {}
    fixed_delta = 0.0
    original = state[var]
    for factor_id in touching[var]:
        factor = tied.graph.factors[factor_id]
        parameter = tied.parameter_of[factor_id]
        state[var] = 1
        sat_true = 1.0 if factor.satisfied(state) else 0.0
        state[var] = 0
        sat_false = 1.0 if factor.satisfied(state) else 0.0
        if parameter < 0:
            fixed_delta += factor.weight * (sat_true - sat_false)
        else:
            if sat_true:
                counts_true[parameter] = counts_true.get(parameter, 0.0) + sat_true
            if sat_false:
                counts_false[parameter] = counts_false.get(parameter, 0.0) + sat_false
    state[var] = original
    return counts_true, counts_false, fixed_delta


def _weighted_delta(
    tied: TiedGraph, touching, state: List[int], var: int, weights: Sequence[float]
) -> float:
    counts_true, counts_false, fixed_delta = _rule_counts(tied, touching, state, var)
    delta = fixed_delta
    for index, count in counts_true.items():
        delta += weights[index] * count
    for index, count in counts_false.items():
        delta -= weights[index] * count
    return delta


def _sigmoid(value: float) -> float:
    if value > 35:
        return 1.0
    if value < -35:
        return 0.0
    return 1.0 / (1.0 + math.exp(-value))


def _log1p_exp(value: float) -> float:
    """log(1 + e^value), numerically stable."""
    if value > 35:
        return value
    return math.log1p(math.exp(value))
