"""The paper's core contribution: probabilistic KBs as relations,
batch grounding, quality control hooks, and the Tuffy-T baseline."""

from .backends import Backend, MPPBackend, SingleNodeBackend, TPI_VIEWS
from .clauses import (
    Atom,
    ClassifiedClause,
    ClauseError,
    HornClause,
    PARTITION_BODY_PATTERNS,
    PARTITION_INDEXES,
    classify_clause,
    clause_from_identifier,
    partition_patterns_text,
)
from .config import (
    ANALYSIS_MODES,
    BackendConfig,
    GroundingConfig,
    InferenceConfig,
    MPPConfig,
    build_backend,
)
from .hierarchy import broaden_facts, generalizations, subclass_map
from .grounding import (
    DEFAULT_MAX_ITERATIONS,
    Grounder,
    GroundingResult,
    IterationStats,
)
from .lineage import Derivation, DerivationTree, LineageIndex
from .model import (
    Fact,
    FunctionalConstraint,
    KnowledgeBase,
    KnowledgeBaseError,
    Relation,
    TYPE_I,
    TYPE_II,
)
from .probkb import ProbKB
from .relmodel import Dictionary, LoadReport, RelationalKB
from .results import ConstraintResult, InferenceResult
from .sqlgen import (
    apply_constraints_key_plan,
    ground_atoms_plan,
    ground_factors_plan,
    singleton_factors_plan,
)
from .tuffy import TuffyT

__all__ = [
    "ANALYSIS_MODES",
    "Atom",
    "Backend",
    "BackendConfig",
    "ClassifiedClause",
    "ClauseError",
    "ConstraintResult",
    "DEFAULT_MAX_ITERATIONS",
    "Derivation",
    "DerivationTree",
    "Dictionary",
    "Fact",
    "FunctionalConstraint",
    "Grounder",
    "GroundingConfig",
    "GroundingResult",
    "HornClause",
    "InferenceConfig",
    "InferenceResult",
    "IterationStats",
    "KnowledgeBase",
    "KnowledgeBaseError",
    "LineageIndex",
    "LoadReport",
    "MPPBackend",
    "MPPConfig",
    "PARTITION_BODY_PATTERNS",
    "PARTITION_INDEXES",
    "ProbKB",
    "Relation",
    "RelationalKB",
    "SingleNodeBackend",
    "TPI_VIEWS",
    "TYPE_I",
    "TYPE_II",
    "TuffyT",
    "apply_constraints_key_plan",
    "broaden_facts",
    "build_backend",
    "classify_clause",
    "clause_from_identifier",
    "ground_atoms_plan",
    "generalizations",
    "ground_factors_plan",
    "partition_patterns_text",
    "singleton_factors_plan",
    "subclass_map",
]
