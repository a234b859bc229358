"""The unified public API: one session object, explicit config objects.

This module is the front door of the reproduction.  Everything a caller
configures is a frozen dataclass, everything a pipeline step returns is
a typed result, and the whole lifecycle — load, ground, infer, query,
serve, shut down — hangs off one :class:`ExpansionSession`::

    from repro.api import (
        BackendConfig, ExpansionSession, GroundingConfig, MPPConfig,
    )

    config = BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=8,
                                                     num_workers=4))
    with ExpansionSession(kb, backend=config) as session:
        grounding = session.ground()        # GroundingResult
        marginals = session.infer()         # InferenceResult
        facts = session.query(relation="bornIn", min_probability=0.5)

The config objects are the only spelling: there are no per-function
tuning keywords (``docs/api.md`` lists every field).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from .delta import DeltaExpander, DeltaResult

from .analyze import (
    AnalysisReport,
    PlanEnvironment,
    StaticPlanReport,
    analyze as analyze_kb,
)
from .core.backends import Backend
from .core.clauses import HornClause
from .core.config import (
    ANALYSIS_MODES,
    BackendConfig,
    GroundingConfig,
    InferenceConfig,
    MPPConfig,
    build_backend,
)
from .core.grounding import GroundingResult, IterationStats
from .core.model import Fact, KnowledgeBase
from .core.probkb import ProbKB
from .core.results import ConstraintResult, InferenceResult
from .infer.registry import (
    InferenceEngine,
    build_engine,
    register_engine,
    registered_engines,
)
from .relational.verify import VerificationReport

__all__ = [
    "ANALYSIS_MODES",
    "AnalysisReport",
    "BackendConfig",
    "ConstraintResult",
    "ExpansionSession",
    "GroundingConfig",
    "GroundingResult",
    "InferenceConfig",
    "InferenceEngine",
    "InferenceResult",
    "IterationStats",
    "MPPConfig",
    "VerificationReport",
    "build_backend",
    "build_engine",
    "register_engine",
    "registered_engines",
]


class ExpansionSession:
    """A knowledge-expansion session over one KB.

    Thin, stateful facade over :class:`~repro.ProbKB`: construction
    takes only config objects, pipeline steps return typed results, and
    the session owns backend resources (MPP worker pools), released by
    :meth:`close` or the context manager.

    Not safe for concurrent use — wrap it with :meth:`serve` for a
    thread-safe front end.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        backend: Union[BackendConfig, Backend] = BackendConfig(),
        grounding: GroundingConfig = GroundingConfig(),
        inference: InferenceConfig = InferenceConfig(),
    ) -> None:
        self.probkb = ProbKB(
            kb, backend=backend, grounding=grounding, inference=inference
        )
        self._delta: Optional["DeltaExpander"] = None

    @classmethod
    def from_snapshot(
        cls,
        path: str,
        *,
        backend: Union[BackendConfig, Backend] = BackendConfig(),
        inference: InferenceConfig = InferenceConfig(),
    ) -> "ExpansionSession":
        """Warm-start a session from a snapshot file (no grounding run)."""
        from .serve.snapshot import load_snapshot

        session = cls.__new__(cls)
        session.probkb = load_snapshot(path, backend=backend)
        session.probkb.inference_config = inference
        session._delta = None
        return session

    # -- config & lifecycle -------------------------------------------------

    @property
    def kb(self) -> KnowledgeBase:
        return self.probkb.kb

    @property
    def backend(self) -> Backend:
        return self.probkb.backend

    @property
    def grounding_config(self) -> GroundingConfig:
        return self.probkb.grounding_config

    @property
    def inference_config(self) -> InferenceConfig:
        return self.probkb.inference_config

    @property
    def generation(self) -> int:
        return self.probkb.generation

    def executor_info(self) -> Dict[str, object]:
        """How the backend executes work (serial / multiprocess, workers)."""
        return self.probkb.backend.executor_info()

    def inference_info(self) -> Dict[str, object]:
        """How marginal inference runs (engine, workers, colours, last
        wall clock) — the inference counterpart of :meth:`executor_info`."""
        return self.probkb.inference_info()

    def close(self) -> None:
        self.probkb.close()

    def __enter__(self) -> "ExpansionSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pipeline -----------------------------------------------------------

    def apply_constraints(self) -> ConstraintResult:
        """Run Query 3 once (up-front cleaning)."""
        return self.probkb.apply_constraints()

    def ground(self, max_iterations: Optional[int] = None) -> GroundingResult:
        """Run Algorithm 1 to closure (bounded by the grounding config)."""
        return self.probkb.ground(max_iterations)

    def add_evidence(
        self,
        facts: Sequence[Fact],
        max_iterations: Optional[int] = None,
    ) -> GroundingResult:
        """Incrementally expand with new extracted evidence."""
        return self.probkb.add_evidence(facts, max_iterations=max_iterations)

    def expand_delta(
        self,
        facts: Sequence[Fact],
        max_iterations: Optional[int] = None,
        inference: Optional[InferenceConfig] = None,
    ) -> "DeltaResult":
        """Incrementally expand *and* refresh marginals at O(delta) cost.

        Unlike :meth:`add_evidence` (which rebuilds TΦ and leaves new
        facts unscored until the next :meth:`materialize_marginals`),
        this grounds only the flush's consequences, re-samples only the
        factor-graph components the new ground clauses touch, and
        splices the refreshed marginals into TProb — bit-identical to a
        full componentwise re-expansion at the same seed.  The first
        call primes the baseline (one full expansion); see
        ``docs/incremental.md``.

        ``inference`` pins the delta sampler's config on the first call
        (default: the session's); gibbs configs with ``num_workers >= 2``
        re-sample big touched components on the worker pool.  Passing a
        different config after the baseline is primed raises — the
        splice contract requires one config per expander lifetime.
        """
        if self._delta is None:
            from .delta import DeltaExpander

            self._delta = DeltaExpander(self.probkb, inference=inference)
        elif inference is not None and inference != self._delta.inference:
            raise ValueError(
                "expand_delta inference config cannot change after the "
                "baseline is primed; keep one config per session"
            )
        return self._delta.expand_delta(facts, max_iterations)

    def add_rules(
        self,
        rules: Sequence[HornClause],
        max_iterations: Optional[int] = None,
    ) -> GroundingResult:
        """Incrementally expand with new deductive rules.

        The session's ``GroundingConfig.analysis`` gate screens the
        combined program first; ``"strict"`` rejects the batch with
        :class:`~repro.analyze.AnalysisError` without changing the KB.
        """
        return self.probkb.add_rules(rules, max_iterations=max_iterations)

    def analyze(self) -> AnalysisReport:
        """Run the static analyzer over the session's KB (pure; see
        :mod:`repro.analyze`).  Independent of the pre-flight gate — it
        always runs, whatever ``GroundingConfig.analysis`` says."""
        return analyze_kb(
            self.kb, environment=PlanEnvironment.from_backend(self.backend)
        )

    def explain(self) -> StaticPlanReport:
        """Static EXPLAIN of every grounding query (Figure 4, estimated):
        plan trees with predicted rows, motions, and modelled seconds for
        this session's backend, computed purely from statistics."""
        return self.probkb.explain()

    def verify_plans(self) -> List[VerificationReport]:
        """PlanCheck over every grounding query of this session's KB:
        logical-plan soundness (PKB201-208) plus, on a multi-segment
        cluster, the static physical plans' distribution soundness
        (PKB209-212).  Pure — nothing executes.  Complements the
        runtime ``PROBKB_VERIFY_PLANS`` /
        ``BackendConfig(verify_plans=True)`` gate, which checks the
        plans actually executed (see ``docs/plan-ir.md``)."""
        return self.probkb.verify_plans()

    def infer(self, config: Optional[InferenceConfig] = None) -> InferenceResult:
        """Marginal inference with the session's (or the given) config."""
        return self.probkb.infer(config)

    def materialize_marginals(
        self,
        marginals: Optional[Dict[Fact, float]] = None,
        config: Optional[InferenceConfig] = None,
    ) -> int:
        """Compute (if needed) and store marginals in table TProb."""
        return self.probkb.materialize_marginals(marginals, config)

    # -- results ------------------------------------------------------------

    def query(
        self,
        relation: Optional[str] = None,
        subject: Optional[str] = None,
        object: Optional[str] = None,
        min_probability: float = 0.0,
    ) -> List[Tuple[Fact, Optional[float]]]:
        """Pattern-query the expanded KB with stored probabilities."""
        return self.probkb.query_facts(
            relation=relation,
            subject=subject,
            object=object,
            min_probability=min_probability,
        )

    def new_facts(
        self,
        marginals: Optional[Dict[Fact, float]] = None,
        min_probability: float = 0.0,
    ) -> List[Tuple[Fact, Optional[float]]]:
        return self.probkb.new_facts(marginals, min_probability=min_probability)

    def all_facts(self) -> List[Fact]:
        return self.probkb.all_facts()

    def fact_count(self) -> int:
        return self.probkb.fact_count()

    def factor_count(self) -> int:
        return self.probkb.factor_count()

    @property
    def elapsed_seconds(self) -> float:
        """Modelled engine time accumulated so far."""
        return self.probkb.elapsed_seconds

    # -- serving ------------------------------------------------------------

    def serve(self, config=None):
        """Wrap this session in a concurrency-safe :class:`KBService`.

        The service (and its ingest worker) takes over mutation; use its
        lifecycle (``start``/``stop`` or context manager) from here on.
        """
        from .serve.engine import KBService

        return KBService(self.probkb, config)

    def save_snapshot(self, path: str) -> str:
        """Persist the expanded KB + marginals for warm restarts."""
        from .serve.snapshot import save_snapshot

        return save_snapshot(self.probkb, path)
