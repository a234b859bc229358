"""Marginal inference engines over ground factor graphs.

The grounding phase (``repro.core``) emits a factor table TΦ; this
package plays the role GraphLab's parallel Gibbs sampler plays in the
paper: computing P(fact is true) for every ground atom.
"""

from .bp import BPResult, bp_marginals
from .components import (
    ComponentIndex,
    ComponentSample,
    build_component_graph,
    component_seed,
    componentwise_marginals,
    sample_components,
)
from .exact import exact_marginals
from .factor_graph import ClauseFactor, FactorGraph
from .gibbs import GibbsResult, GibbsSampler

__all__ = [
    "BPResult",
    "ClauseFactor",
    "ComponentIndex",
    "ComponentSample",
    "FactorGraph",
    "GibbsResult",
    "GibbsSampler",
    "bp_marginals",
    "build_component_graph",
    "component_seed",
    "componentwise_marginals",
    "exact_marginals",
    "sample_components",
]
