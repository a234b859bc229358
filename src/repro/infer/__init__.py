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
from .exact import exact_map, exact_marginals
from .factor_graph import ClauseFactor, FactorGraph
from .gibbs import (
    ChainDiagnostics,
    GibbsResult,
    GibbsSampler,
    gibbs_marginals,
    gibbs_with_diagnostics,
)
from .map_inference import MAPResult, annealed_map, icm_map

__all__ = [
    "BPResult",
    "ChainDiagnostics",
    "ClauseFactor",
    "ComponentIndex",
    "ComponentSample",
    "FactorGraph",
    "GibbsResult",
    "MAPResult",
    "GibbsSampler",
    "bp_marginals",
    "build_component_graph",
    "component_seed",
    "componentwise_marginals",
    "exact_map",
    "exact_marginals",
    "annealed_map",
    "gibbs_marginals",
    "gibbs_with_diagnostics",
    "icm_map",
    "sample_components",
]
