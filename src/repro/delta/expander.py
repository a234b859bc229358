"""DeltaExpander: ingest → refreshed marginals at O(delta) cost.

Drives both delta stages and maintains the materialized state they
update: the connected-component index, the in-memory marginals map, and
the TProb table.  The flow is split into three phases so the serve
layer can release its write lock while a flush re-samples — queries
keep running through the costly phase:

- :meth:`ground` (needs the write lock): delta-ground the flush, fold
  the new factors into the component index, and snapshot the touched
  components' payloads.
- :meth:`infer` (lock-free, pure): re-sample the snapshot components.
- :meth:`commit` (write lock): splice the refreshed marginals into the
  previous result and upsert them into TProb.

Because each component's marginals depend only on its own members,
factors, and seed (see :mod:`repro.infer.components`), the spliced
result is bit-identical to re-sampling the whole factor graph
componentwise from scratch.  The delta path is Gibbs-only: constructing
an expander for any other engine raises ``ValueError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, TYPE_CHECKING

from ..core.config import InferenceConfig
from ..core.relmodel import store_marginals
from ..infer.components import ComponentIndex, ComponentSnapshot
from ..relational import HashJoin, Project, Scan, UnionAll, Values, col
from ..relational.types import Row
from .grounding import DeltaGrounder, DeltaGroundingResult

if TYPE_CHECKING:
    from ..core.model import Fact
    from ..core.probkb import ProbKB


@dataclass
class PendingDelta:
    """A grounded-but-not-yet-inferred flush, safe to sample off-lock."""

    grounding: DeltaGroundingResult
    snapshots: List[ComponentSnapshot]
    touched_relations: FrozenSet[str]
    full_rebuild: bool = False

    @property
    def touched_components(self) -> int:
        return len(self.snapshots)

    @property
    def resampled_variables(self) -> int:
        return sum(len(members) for members, _ in self.snapshots)


@dataclass
class DeltaResult:
    """Outcome of one :meth:`DeltaExpander.expand_delta` call."""

    added_evidence: int
    new_facts: int
    new_factors: int
    touched_components: int
    resampled_variables: int
    touched_relations: FrozenSet[str]
    full_rebuild: bool
    iterations: int
    converged: bool
    ground_seconds: float = 0.0
    infer_seconds: float = 0.0
    commit_seconds: float = 0.0

    @property
    def elapsed_seconds(self) -> float:
        return self.ground_seconds + self.infer_seconds + self.commit_seconds


class DeltaExpander:
    """Incremental expansion state machine over one :class:`ProbKB`."""

    def __init__(
        self, probkb: "ProbKB", inference: Optional[InferenceConfig] = None
    ) -> None:
        self.probkb = probkb
        self.inference = inference or probkb.inference_config
        if self.inference.engine != "gibbs":
            raise ValueError(
                "delta expansion re-samples components with the 'gibbs' "
                f"engine only, got engine {self.inference.engine!r}; use "
                "InferenceConfig(engine='gibbs') or full expansion"
            )
        self.grounder = DeltaGrounder(probkb)
        self.index = ComponentIndex()
        self.marginals: Dict[int, float] = {}
        #: the KB generation the index and marginals describe; any other
        #: writer (add_evidence, add_rules, ground, ...) bumps it
        self._generation: Optional[int] = None

    @property
    def primed(self) -> bool:
        """Whether no other writer changed the KB since this expander's last write."""
        return self._generation == self.probkb.generation

    def invalidate(self) -> None:
        """Forget primed state after an error; the next flush re-primes."""
        self._generation = None

    # -- priming (full expansion, establishes the baseline) ----------------------

    def prime(self) -> None:
        """Full componentwise expansion: the baseline every delta splices
        into.  Also the recovery path after rule changes or errors."""
        if self.probkb.grounding is None:
            self.probkb.ground()
        snapshots = self._reindex(self.probkb.factor_rows())
        self.marginals = self.probkb.sample_snapshots(snapshots, self.inference)
        store_marginals(self.probkb.backend, sorted(self.marginals.items()))
        self.probkb.generation += 1
        self._generation = self.probkb.generation

    # -- the three delta phases --------------------------------------------------

    def ground(
        self, facts: Sequence["Fact"], max_iterations: Optional[int] = None
    ) -> PendingDelta:
        """Phase A (write lock): merge the flush and snapshot its blast
        radius.  New facts are queryable (unscored) when this returns."""
        if not self.primed:
            self.prime()
        grounding = self.grounder.expand(facts, max_iterations)
        if grounding.full_rebuild:
            pending = self._rebuild_pending(grounding)
        else:
            touched = self.index.add_factors(grounding.new_factor_rows)
            snapshots = self.index.snapshots(touched)
            pending = PendingDelta(
                grounding=grounding,
                snapshots=snapshots,
                touched_relations=self._relation_names(snapshots, grounding),
            )
        self.probkb.generation += 1
        self._generation = self.probkb.generation
        return pending

    def _rebuild_pending(self, grounding: DeltaGroundingResult) -> PendingDelta:
        """Constraint deletions made the index stale: rebuild it from the
        freshly re-grounded TΦ and schedule every component."""
        snapshots = self._reindex(grounding.new_factor_rows)  # the whole rebuilt TΦ
        self.marginals = {}
        return PendingDelta(
            grounding=grounding,
            snapshots=snapshots,
            touched_relations=frozenset(),
            full_rebuild=True,
        )

    def _reindex(self, rows: Sequence[Row]) -> List[ComponentSnapshot]:
        """Rebuild the component index from a whole TΦ; every
        component's snapshot, in anchor order."""
        self.index = ComponentIndex.from_factor_rows(rows)
        return self.index.snapshots(self.index.roots())

    def _relation_names(
        self, snapshots: Sequence[ComponentSnapshot], grounding: DeltaGroundingResult
    ) -> FrozenSet[str]:
        """Predicates whose query results the flush may have changed:
        relations of the new facts plus of every member of a touched
        component (their probabilities move), read from TΠ in one query."""
        members = Values(["M.I"], [(member,) for members, _ in snapshots for member in members])
        touched = Project(
            HashJoin(members, Scan("TP", "T"), ["M.I"], ["T.I"]), [(col("T.R"), "R")]
        )
        new = Project(self.probkb.rkb.facts_since(grounding.first_fact_id), [(col("T.R"), "R")])
        rows = self.probkb.backend.query(UnionAll([touched, new])).rows
        relations = self.probkb.rkb.relations
        return frozenset(relations.name(rid) for (rid,) in rows)

    def infer(self, pending: PendingDelta) -> Dict[int, float]:
        """Phase B (no lock): re-sample the snapshot components.  Reads
        only the snapshots, so readers may query meanwhile; the session
        records the batch for ``inference_info()``."""
        return self.probkb.sample_snapshots(pending.snapshots, self.inference)

    def commit(self, pending: PendingDelta, refreshed: Dict[int, float]) -> None:
        """Phase C (write lock): splice the refreshed marginals in."""
        if pending.full_rebuild:
            self.marginals = dict(refreshed)
        else:
            self.marginals.update(refreshed)
        store_marginals(
            self.probkb.backend,
            sorted(refreshed.items()),
            replace=pending.full_rebuild,
        )
        self.probkb.generation += 1
        self._generation = self.probkb.generation

    def expand_delta(
        self, facts: Sequence["Fact"], max_iterations: Optional[int] = None
    ) -> DeltaResult:
        """Ground + infer + commit in one call."""
        started = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
        pending = self.ground(facts, max_iterations)
        grounded = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
        refreshed = self.infer(pending)
        inferred = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
        self.commit(pending, refreshed)
        return DeltaResult(
            added_evidence=pending.grounding.added_evidence,
            new_facts=pending.grounding.new_facts,
            new_factors=pending.grounding.new_factors,
            touched_components=pending.touched_components,
            resampled_variables=pending.resampled_variables,
            touched_relations=pending.touched_relations,
            full_rebuild=pending.full_rebuild,
            iterations=len(pending.grounding.iterations),
            converged=pending.grounding.converged,
            ground_seconds=grounded - started,
            infer_seconds=inferred - grounded,
            commit_seconds=time.perf_counter() - inferred,  # lint: disable=RC003 (timing metadata, not sampling)
        )
