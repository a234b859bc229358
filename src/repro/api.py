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
    from .serve.engine import KBService, ServiceConfig

from .analyze import AnalysisReport, analyze as analyze_kb
from .core.backends import Backend
from .core.config import (
    ANALYSIS_MODES,
    BackendConfig,
    GroundingConfig,
    InferenceConfig,
    MPPConfig,
    build_backend,
)
from .core.grounding import GroundingResult, IterationStats
from .core.model import Fact
from .core.probkb import ProbKB
from .core.results import ConstraintResult, InferenceResult
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
    "InferenceResult",
    "IterationStats",
    "MPPConfig",
    "VerificationReport",
    "build_backend",
]


class ExpansionSession(ProbKB):
    """A knowledge-expansion session over one KB.

    A :class:`~repro.ProbKB` — same constructor, same pipeline methods,
    same resources released by ``close()`` or the context manager —
    plus the conveniences around it: O(delta) expansion, serving,
    snapshots and on-demand analysis.

    Not safe for concurrent use — wrap it with :meth:`serve` for a
    thread-safe front end.
    """

    #: built by the first :meth:`expand_delta`
    _delta: Optional["DeltaExpander"] = None

    @classmethod
    def from_snapshot(
        cls,
        path: str,
        *,
        backend: Union[BackendConfig, Backend] = BackendConfig(),
        inference: InferenceConfig = InferenceConfig(),
    ) -> "ExpansionSession":
        """Warm-start a session from a snapshot file (no atom closure run)."""
        from .serve.snapshot import read_snapshot, restore_snapshot

        kb, payload = read_snapshot(path)
        return restore_snapshot(cls(kb, backend, inference=inference), payload)

    @property
    def probkb(self) -> "ExpansionSession":
        """The session itself, for code written when the session held
        its :class:`~repro.ProbKB` instead of being one."""
        return self

    def executor_info(self) -> Dict[str, object]:
        """How the backend executes work (serial / multiprocess, workers)."""
        return self.backend.executor_info()

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
        call primes the baseline (one full expansion), and so does the
        first call after any other write to the KB; see
        ``docs/incremental.md``.

        ``inference`` pins the delta sampler's config on the first call
        (default: the session's).  Passing a
        different config after the baseline is primed raises — the
        splice contract requires one config per expander lifetime.
        """
        if self._delta is None:
            from .delta import DeltaExpander

            self._delta = DeltaExpander(self, inference=inference)
        elif inference is not None and inference != self._delta.inference:
            raise ValueError(
                "expand_delta inference config cannot change after the "
                "baseline is primed; keep one config per session"
            )
        return self._delta.expand_delta(facts, max_iterations)

    def analyze(self) -> AnalysisReport:
        """Run the static analyzer over the session's KB (pure; see
        :mod:`repro.analyze`).  Independent of the pre-flight gate — it
        always runs, whatever ``GroundingConfig.analysis`` says."""
        return analyze_kb(self.kb, backend=self.backend)

    def query(
        self,
        relation: Optional[str] = None,
        subject: Optional[str] = None,
        object: Optional[str] = None,
        min_probability: float = 0.0,
    ) -> List[Tuple[Fact, Optional[float]]]:
        """Pattern-query the expanded KB with stored probabilities
        (:meth:`query_facts` under the name the docs use)."""
        return self.query_facts(
            relation=relation,
            subject=subject,
            object=object,
            min_probability=min_probability,
        )

    def serve(self, config: Optional["ServiceConfig"] = None) -> "KBService":
        """Wrap this session in a concurrency-safe :class:`KBService`.

        The service (and its ingest worker) takes over mutation; use its
        lifecycle (``start``/``stop`` or context manager) from here on.
        """
        from .serve.engine import KBService

        return KBService(self, config)

    def save_snapshot(self, path: str) -> str:
        """Persist the expanded KB + marginals for warm restarts."""
        from .serve.snapshot import save_snapshot

        return save_snapshot(self, path)
