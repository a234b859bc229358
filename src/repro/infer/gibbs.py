"""Chromatic (parallel) Gibbs sampling for marginal inference.

The paper runs the parallel Gibbs sampler of Gonzalez et al. (AISTATS'11)
on GraphLab.  That algorithm colours the Markov blanket graph and updates
all variables of one colour simultaneously — valid because same-coloured
variables are conditionally independent.  We reproduce it faithfully:
a greedy largest-first colouring partitions variables into colour
classes, and each sweep updates the classes in sequence.

There are two sweep kernels with one arithmetic.  Every draw comes from
a counter-based stream keyed by ``(seed, sweep, color, variable)``, so
the draw for a variable is a pure function of its key, independent of
what else is sampled beside it or in what order.

- :meth:`GibbsSampler.run_stream` is the scalar kernel: one variable at
  a time, in Python.  It is the oracle the block kernel is tested
  against.
- :func:`block_marginals` samples many graphs (the components of TΦ)
  together, one array step per (sweep, colour) across all of them.

Both sum a variable's per-factor differences in the same order, call
the same :func:`logistic` and draw the same uniforms, so they return
``==`` marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .factor_graph import FactorGraph

_MASK = (1 << 64) - 1
#: pseudo-sweep index reserved for drawing the initial state
_INIT_SWEEP = -1
#: odd multipliers that spread the sweep, colour and variable counters
_SWEEP_MUL = 0xD1B54A32D192ED03
_COLOR_MUL = 0x8CB92BA72F3D8DD7
_VAR_MUL = 0x9E3779B97F4A7C15
#: beyond ±this energy difference P(x = 1) is exactly 1.0 / 0.0
_CLAMP = 35.0


def _mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64_array(z: Any) -> Any:
    """:func:`_mix64` over a ``uint64`` array (numpy wraps mod 2**64)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_key(seed: int, sweep: int, color: int) -> int:
    """The per-(seed, sweep, color) stream of the sweep kernel."""
    z = _mix64(seed & _MASK)
    z = _mix64(z ^ (((sweep + 2) * _SWEEP_MUL) & _MASK))
    return _mix64(z ^ (((color + 1) * _COLOR_MUL) & _MASK))


def stream_uniform(key: int, var: int) -> float:
    """Uniform in [0, 1) for one variable of one stream.

    A pure function of ``(key, var)``: any process sampling ``var`` at a
    given (seed, sweep, color) draws exactly this number.
    """
    z = _mix64(key ^ (((var + 1) * _VAR_MUL) & _MASK))
    return (z >> 11) * (2.0 ** -53)


def logistic(deltas: Sequence[float]) -> Any:
    """P(x = 1 | blanket) for each Δ = log φ(x=1) − log φ(x=0).

    The one logistic both kernels call: ``np.exp`` over an array.
    Beyond ±35 the result is exactly 1.0 / 0.0, and Δ is clipped before
    ``exp`` so nothing overflows.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    p_true = 1.0 / (1.0 + np.exp(-np.clip(deltas, -_CLAMP, _CLAMP)))
    p_true[deltas > _CLAMP] = 1.0
    p_true[deltas < -_CLAMP] = 0.0
    return p_true


def burn_in_sweeps(num_sweeps: int) -> int:
    """Sweeps discarded before counting: a quarter, at least one."""
    return max(1, num_sweeps // 4) if num_sweeps > 1 else 0


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

    def _energy_delta(self, var: int, state: List[int]) -> float:
        """Δ = log φ(x=1) − log φ(x=0) over the factors touching ``var``,
        added one per-factor difference at a time (the block kernel's
        ``bincount`` adds the same differences in the same order)."""
        delta = 0.0
        factors = self.graph.factors
        current = state[var]
        for factor_id in self._touching[var]:
            factor = factors[factor_id]
            state[var] = 1
            if_true = factor.log_potential(state)
            state[var] = 0
            delta += if_true - factor.log_potential(state)
        state[var] = current
        return delta

    def run_stream(
        self, num_sweeps: int = 500, burn_in: Optional[int] = None
    ) -> GibbsResult:
        """Chromatic sweep with counter-based RNG.

        Each draw is a pure function of ``(seed, sweep, color, var)``
        (see :func:`stream_uniform`), so the marginals do not depend on
        what else is sampled beside this graph.
        """
        n = self.graph.num_variables
        if burn_in is None:
            burn_in = burn_in_sweeps(num_sweeps)
        state = stream_state(self.seed, n)
        true_counts = [0] * n
        kept = 0
        for sweep in range(num_sweeps):
            for color, color_class in enumerate(self._colors):
                key = stream_key(self.seed, sweep, color)
                # same-colour variables are conditionally independent,
                # so the whole class's conditionals can be read before
                # any of its variables is redrawn
                p_true = logistic([self._energy_delta(var, state) for var in color_class])
                for var, p in zip(color_class, p_true):
                    state[var] = 1 if stream_uniform(key, var) < p else 0
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
        return GibbsResult(
            marginals=marginals,
            num_sweeps=num_sweeps,
            num_colors=self.num_colors,
        )


class _ColorStep:
    """The arrays of one block colour: the colour-``c`` class of every
    sampler that has one, and the factors touching those variables."""

    def __init__(
        self,
        variables: List[int],
        positions: List[int],
        factors: List[int],
        clauses: Sequence[Any],
        var_terms: Any,
    ) -> None:
        self.variables = np.array(variables, dtype=np.int64)
        self.var_terms = var_terms[self.variables]
        #: incidence list: (position in ``variables``, global factor)
        self.positions = np.array(positions, dtype=np.int64)
        factor_ids = np.array(factors, dtype=np.int64)
        *atoms, weights = (column[factor_ids] for column in clauses)
        self.atoms = atoms  # head, body 1, body 2
        self.weights = weights
        #: where an atom is the variable being redrawn
        owner = self.variables[self.positions]
        self.forced = [atom == owner for atom in atoms]
        self.free = [~forced for forced in self.forced]


def block_marginals(
    samplers: Sequence[GibbsSampler], num_sweeps: int
) -> Dict[int, float]:
    """Every sampler's :meth:`~GibbsSampler.run_stream` marginals, ``==``
    to running each alone, sampled together in numpy.

    The graphs are laid end to end: variable ``v`` of sampler ``k`` is
    global index ``offset[k] + v``, and one more slot, always true,
    stands for an absent body atom, so a clause is three ``int64``
    columns and a ``float64`` weight.  Block colour ``c`` is colour ``c``
    of every sampler that has one.  A (sweep, colour) step evaluates
    every incident clause with its variable forced to 1 and to 0,
    ``bincount``s the weighted differences onto the variables (it adds in
    input order, which is ``factors_touching`` order), applies
    :func:`logistic` and redraws against the stream uniforms, whose keys
    are vectorised over the samplers' seeds.
    """
    offsets = [0]
    for sampler in samplers:
        offsets.append(offsets[-1] + sampler.graph.num_variables)
    total = offsets[-1]
    if total == 0:
        return {}
    heads: List[int] = []
    bodies: List[List[int]] = [[], []]
    weights: List[float] = []
    factor_offsets = [0]
    owners: List[int] = []  # sampler index of each global variable
    local_ids: List[int] = []  # its index within that sampler's graph
    for index, (sampler, offset) in enumerate(zip(samplers, offsets)):
        for factor in sampler.graph.factors:
            if len(factor.body) > 2:
                raise ValueError("the block kernel takes TΦ clauses: at most two body atoms")
            body = [offset + var for var in factor.body] + [total, total]
            heads.append(offset + factor.head)
            bodies[0].append(body[0])
            bodies[1].append(body[1])
            weights.append(factor.weight)
        factor_offsets.append(len(heads))
        owners.extend([index] * sampler.graph.num_variables)
        local_ids.extend(range(sampler.graph.num_variables))
    clauses = (
        np.array(heads, dtype=np.int64),
        np.array(bodies[0], dtype=np.int64),
        np.array(bodies[1], dtype=np.int64),
        np.array(weights, dtype=np.float64),
    )
    owner = np.array(owners, dtype=np.int64)
    var_terms = (np.array(local_ids, dtype=np.uint64) + np.uint64(1)) * np.uint64(_VAR_MUL)

    steps: List[_ColorStep] = []
    for color in range(max(sampler.num_colors for sampler in samplers)):
        variables: List[int] = []
        positions: List[int] = []
        factors: List[int] = []
        for index, sampler in enumerate(samplers):
            if color >= sampler.num_colors:
                continue
            offset, factor_offset = offsets[index], factor_offsets[index]
            for var in sampler._colors[color]:
                positions.extend([len(variables)] * len(sampler._touching[var]))
                factors.extend(factor_offset + f for f in sampler._touching[var])
                variables.append(offset + var)
        steps.append(_ColorStep(variables, positions, factors, clauses, var_terms))

    def uniforms(keys: Any, terms: Any) -> Any:
        return (mix64_array(keys ^ terms) >> np.uint64(11)) * (2.0 ** -53)

    def keyed(keys: Any, counter: int, multiplier: int) -> Any:
        return mix64_array(keys ^ np.uint64((counter * multiplier) & _MASK))

    seed_keys = mix64_array(
        np.array([sampler.seed & _MASK for sampler in samplers], dtype=np.uint64)
    )
    init_keys = keyed(keyed(seed_keys, _INIT_SWEEP + 2, _SWEEP_MUL), 1, _COLOR_MUL)
    state = np.ones(total + 1, dtype=bool)  # the last slot: an absent atom
    state[:total] = uniforms(init_keys[owner], var_terms) < 0.5
    counts = np.zeros(total, dtype=np.int64)
    kept = 0
    burn_in = burn_in_sweeps(num_sweeps)
    for sweep in range(num_sweeps):
        sweep_keys = keyed(seed_keys, sweep + 2, _SWEEP_MUL)[owner]
        for color, step in enumerate(steps):
            keys = keyed(sweep_keys[step.variables], color + 1, _COLOR_MUL)
            values = [state[atom] for atom in step.atoms]
            sat_if_true = (values[0] | step.forced[0]) | ~(
                (values[1] | step.forced[1]) & (values[2] | step.forced[2])
            )
            sat_if_false = (values[0] & step.free[0]) | ~(
                (values[1] & step.free[1]) & (values[2] & step.free[2])
            )
            diffs = np.where(sat_if_true, step.weights, 0.0) - np.where(
                sat_if_false, step.weights, 0.0
            )
            deltas = np.bincount(step.positions, weights=diffs, minlength=len(step.variables))
            state[step.variables] = uniforms(keys, step.var_terms) < logistic(deltas)
        if sweep >= burn_in:
            kept += 1
            counts += state[:total]
    if kept == 0:
        kept = 1  # degenerate configuration: report last state
        counts = state[:total].astype(np.int64)
    ids = [var for sampler in samplers for var in sampler.graph.external_ids()]
    return dict(zip(ids, (counts / kept).tolist()))
