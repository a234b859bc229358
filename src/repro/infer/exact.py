"""Exact marginal inference by enumeration (validation oracle).

Only feasible for small ground graphs (≤ ~20 variables); used by tests
to validate the Gibbs sampler and belief propagation.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict

from .factor_graph import FactorGraph

MAX_EXACT_VARIABLES = 22


def exact_marginals(graph: FactorGraph) -> Dict[int, float]:
    """P(X_i = 1) for every variable, keyed by external id."""
    n = graph.num_variables
    if n > MAX_EXACT_VARIABLES:
        raise ValueError(
            f"exact inference limited to {MAX_EXACT_VARIABLES} variables, "
            f"graph has {n}"
        )
    if n == 0:
        return {}
    partition = 0.0
    true_mass = [0.0] * n
    for assignment in itertools.product((0, 1), repeat=n):
        weight = math.exp(graph.log_score(assignment))
        partition += weight
        for var, value in enumerate(assignment):
            if value:
                true_mass[var] += weight
    return {
        graph.external_id(var): true_mass[var] / partition for var in range(n)
    }
