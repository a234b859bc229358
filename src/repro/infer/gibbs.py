"""Chromatic (parallel) Gibbs sampling for marginal inference.

The paper runs the parallel Gibbs sampler of Gonzalez et al. (AISTATS'11)
on GraphLab.  That algorithm colours the Markov blanket graph and updates
all variables of one colour simultaneously — valid because same-coloured
variables are conditionally independent.  We reproduce it faithfully:
a greedy largest-first colouring partitions variables into colour
classes, and each sweep updates the classes in sequence.

There is one sweep kernel, :meth:`GibbsSampler.run_stream`: every draw
comes from a counter-based stream keyed by ``(seed, sweep, color,
variable)``, so the draw for a variable is a pure function of its key,
independent of which process samples it or in what order.  Sampling a
component in a worker process (:mod:`repro.infer.parallel`) therefore
yields marginals bit-identical to a serial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from .factor_graph import FactorGraph

_MASK = (1 << 64) - 1
#: pseudo-sweep index reserved for drawing the initial state
_INIT_SWEEP = -1


def _mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, sweep: int, color: int) -> int:
    """The per-(seed, sweep, color) stream of the sweep kernel."""
    z = _mix64(seed & _MASK)
    z = _mix64(z ^ (((sweep + 2) * 0xD1B54A32D192ED03) & _MASK))
    return _mix64(z ^ (((color + 1) * 0x8CB92BA72F3D8DD7) & _MASK))


def stream_uniform(key: int, var: int) -> float:
    """Uniform in [0, 1) for one variable of one stream.

    A pure function of ``(key, var)``: any process sampling ``var`` at a
    given (seed, sweep, color) draws exactly this number.
    """
    z = _mix64(key ^ (((var + 1) * 0x9E3779B97F4A7C15) & _MASK))
    return (z >> 11) * (2.0 ** -53)


def stream_state(seed: int, num_variables: int) -> List[int]:
    """Deterministic initial assignment for the stream kernel."""
    key = stream_key(seed, _INIT_SWEEP, 0)
    return [
        1 if stream_uniform(key, var) < 0.5 else 0
        for var in range(num_variables)
    ]


@dataclass
class GibbsResult:
    """Marginals plus diagnostics from a Gibbs run."""

    marginals: Dict[int, float]
    num_sweeps: int
    num_colors: int
    #: modelled parallel sweep cost: sum over colours of max class share
    parallel_depth: int

    def probability(self, external_id: int) -> float:
        return self.marginals[external_id]


class GibbsSampler:
    """Single-site Gibbs with chromatic scheduling."""

    def __init__(self, graph: FactorGraph, seed: int = 0) -> None:
        self.graph = graph
        self.seed = seed
        self._touching = graph.factors_touching()
        self._colors = self._color()

    def _color(self) -> List[List[int]]:
        """Colour classes of the Markov blanket graph.

        Greedy largest-first: variables by descending degree (ties in
        index order) each take the smallest colour no already-coloured
        neighbour holds.  The classes fix the sweep order and the draw
        keys, so this rule is part of the determinism contract.
        """
        neighbors = self.graph.neighbors()
        color_of = [-1] * len(neighbors)
        for var in sorted(range(len(neighbors)), key=lambda v: -len(neighbors[v])):
            taken = {color_of[u] for u in neighbors[var]}
            color = 0
            while color in taken:
                color += 1
            color_of[var] = color
        classes: List[List[int]] = [[] for _ in range(max(color_of, default=-1) + 1)]
        for var, color in enumerate(color_of):
            classes[color].append(var)
        return classes

    @property
    def num_colors(self) -> int:
        return len(self._colors)

    # -- sampling -------------------------------------------------------------

    def _conditional_true_probability(
        self, var: int, state: List[int]
    ) -> float:
        """P(X_var = 1 | Markov blanket) from the touching factors."""
        delta = 0.0  # log potential(x=1) - log potential(x=0)
        factors = self.graph.factors
        for factor_id in self._touching[var]:
            factor = factors[factor_id]
            state[var] = 1
            delta += factor.log_potential(state)
            state[var] = 0
            delta -= factor.log_potential(state)
        # logistic of the energy difference
        if delta > 35:
            return 1.0
        if delta < -35:
            return 0.0
        return 1.0 / (1.0 + math.exp(-delta))

    def run_stream(
        self, num_sweeps: int = 500, burn_in: Optional[int] = None
    ) -> GibbsResult:
        """Chromatic sweep with counter-based RNG.

        Each draw is a pure function of ``(seed, sweep, color, var)``
        (see :func:`stream_uniform`), so the marginals do not depend on
        which process runs the sweep.
        """
        n = self.graph.num_variables
        if burn_in is None:
            burn_in = max(1, num_sweeps // 4) if num_sweeps > 1 else 0
        state = stream_state(self.seed, n)
        true_counts = [0] * n
        kept = 0
        for sweep in range(num_sweeps):
            for color, color_class in enumerate(self._colors):
                key = stream_key(self.seed, sweep, color)
                # same-colour variables are conditionally independent,
                # so in-place updates cannot leak into each other's
                # conditionals within this loop
                for var in color_class:
                    p_true = self._conditional_true_probability(var, state)
                    state[var] = 1 if stream_uniform(key, var) < p_true else 0
            if sweep >= burn_in:
                kept += 1
                for var in range(n):
                    true_counts[var] += state[var]
        if kept == 0:
            kept = 1  # degenerate configuration: report last state
            true_counts = list(state)
        marginals = {
            self.graph.external_id(var): true_counts[var] / kept
            for var in range(n)
        }
        depth = sum(
            max(1, len(color_class)) for color_class in self._colors
        )
        return GibbsResult(
            marginals=marginals,
            num_sweeps=num_sweeps,
            num_colors=self.num_colors,
            parallel_depth=depth,
        )


def gibbs_marginals(
    graph: FactorGraph, num_sweeps: int = 500, seed: int = 0
) -> Dict[int, float]:
    """Convenience wrapper: marginals keyed by external variable id."""
    if graph.num_variables == 0:
        return {}
    return GibbsSampler(graph, seed=seed).run_stream(num_sweeps=num_sweeps).marginals


@dataclass
class ChainDiagnostics:
    """Pooled marginals plus Gelman-Rubin convergence diagnostics."""

    marginals: Dict[int, float]
    r_hat: Dict[int, float]
    num_chains: int
    num_sweeps: int

    @property
    def max_r_hat(self) -> float:
        return max(self.r_hat.values(), default=1.0)

    def converged(self, threshold: float = 1.1) -> bool:
        """The usual heuristic: all R-hat below ~1.1."""
        return self.max_r_hat < threshold


def gibbs_with_diagnostics(
    graph: FactorGraph,
    num_chains: int = 4,
    num_sweeps: int = 400,
    seed: int = 0,
) -> ChainDiagnostics:
    """Run several independent chains and report pooled marginals with
    the Gelman-Rubin statistic per variable.

    For binary samples the within-chain variance is a function of the
    chain mean (m(1-m)·n/(n-1)), so per-chain marginals suffice:

        W  = mean_c  m_c (1 - m_c) n/(n-1)
        B  = n · Var_c(m_c)
        R̂ = sqrt( ((n-1)/n · W + B/n) / W )
    """
    if graph.num_variables == 0:
        return ChainDiagnostics({}, {}, num_chains, num_sweeps)
    chains = [
        GibbsSampler(graph, seed=seed + 9973 * chain).run_stream(num_sweeps)
        for chain in range(num_chains)
    ]
    burn_in = max(1, num_sweeps // 4) if num_sweeps > 1 else 0
    kept = max(1, num_sweeps - burn_in)

    marginals: Dict[int, float] = {}
    r_hat: Dict[int, float] = {}
    for external in graph.external_ids():
        means = [chain.marginals[external] for chain in chains]
        pooled = sum(means) / len(means)
        marginals[external] = pooled
        if kept < 2 or num_chains < 2:
            r_hat[external] = 1.0
            continue
        within = sum(m * (1 - m) * kept / (kept - 1) for m in means) / len(means)
        grand = pooled
        between = kept * sum((m - grand) ** 2 for m in means) / (len(means) - 1)
        if within <= 0:
            r_hat[external] = 1.0 if between == 0 else math.inf
            continue
        var_plus = (kept - 1) / kept * within + between / kept
        r_hat[external] = math.sqrt(var_plus / within)
    return ChainDiagnostics(marginals, r_hat, num_chains, num_sweeps)
