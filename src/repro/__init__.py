"""ProbKB — knowledge expansion over probabilistic knowledge bases.

A full reproduction of Chen & Wang, SIGMOD 2014: a relational model for
probabilistic KBs, a SQL-based batch grounding algorithm, an MPP
execution backend, quality control, and marginal inference.

Quickstart::

    from repro import ExpansionSession, Fact, HornClause, Atom, KnowledgeBase
    from repro.api import BackendConfig, MPPConfig

    kb = KnowledgeBase(classes=..., relations=..., facts=..., rules=...)
    with ExpansionSession(kb, backend=BackendConfig(kind="mpp")) as session:
        session.ground()
        marginals = session.infer()

:mod:`repro.api` holds the full session API (config objects, typed
results).  :class:`ExpansionSession` is a :class:`ProbKB` with the
delta-expansion, serving and snapshot conveniences added — one facade,
two names.
"""

from .api import (
    BackendConfig,
    ExpansionSession,
    GroundingConfig,
    InferenceConfig,
    MPPConfig,
)
from .core import (
    Atom,
    ConstraintResult,
    Fact,
    FunctionalConstraint,
    GroundingResult,
    HornClause,
    InferenceResult,
    KnowledgeBase,
    MPPBackend,
    ProbKB,
    Relation,
    SingleNodeBackend,
    TuffyT,
    TYPE_I,
    TYPE_II,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "BackendConfig",
    "ConstraintResult",
    "ExpansionSession",
    "Fact",
    "FunctionalConstraint",
    "GroundingConfig",
    "GroundingResult",
    "HornClause",
    "InferenceConfig",
    "InferenceResult",
    "KnowledgeBase",
    "MPPBackend",
    "MPPConfig",
    "ProbKB",
    "Relation",
    "SingleNodeBackend",
    "TYPE_I",
    "TYPE_II",
    "TuffyT",
    "__version__",
]
