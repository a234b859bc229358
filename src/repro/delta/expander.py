"""DeltaExpander: ingest → refreshed marginals at O(delta) cost.

Drives both delta stages and maintains the materialized state they
update: the connected-component index, the in-memory marginals map, and
the TProb table.  The flow is split into three phases so the serve
layer can double-buffer flushes:

- :meth:`ground` (needs the write lock): delta-ground the flush, fold
  the new factors into the component index, and snapshot the touched
  components' payloads.  Snapshots are *copies* — the index's
  small-to-large merging mutates payload lists in place, so a later
  flush's ``ground`` may not disturb an in-flight inference.
- :meth:`infer` (lock-free, pure): re-sample the snapshot components.
- :meth:`commit` (write lock): splice the refreshed marginals into the
  previous result and upsert them into TProb.

Because each component's marginals depend only on its own members,
factors, and seed (see :mod:`repro.delta.inference`), the spliced
result is bit-identical to re-sampling the whole factor graph
componentwise from scratch.  The delta path is Gibbs-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.config import InferenceConfig
from ..core.relmodel import create_tprob_if_missing
from ..relational import Project, Scan, col
from ..relational import schema as make_schema
from ..relational.types import Row
from .components import ComponentIndex
from .grounding import DeltaGrounder, DeltaGroundingResult
from .inference import sample_components

if TYPE_CHECKING:
    from ..core.model import Fact
    from ..core.probkb import ProbKB

#: (anchor, sorted member ids, factor rows) — a component frozen at ground time
ComponentSnapshot = Tuple[int, List[int], List[Row]]


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
        return sum(len(members) for _, members, _ in self.snapshots)


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
        #: pool driver for gibbs configs (None for other engines); big
        #: touched components ride the worker pool through it
        self.driver = probkb.inference_driver(self.inference)
        self.grounder = DeltaGrounder(probkb)
        self.index = ComponentIndex()
        self.marginals: Dict[int, float] = {}
        self._relation_of: Dict[int, int] = {}
        self._primed = False

    @property
    def primed(self) -> bool:
        return self._primed

    def invalidate(self) -> None:
        """Forget primed state after an error; the next flush re-primes."""
        self._primed = False

    # -- priming (full expansion, establishes the baseline) ----------------------

    def prime(self) -> None:
        """Full componentwise expansion: the baseline every delta splices
        into.  Also the recovery path after rule changes or errors."""
        if self.probkb.grounding is None:
            self.probkb.ground()
        rows = self.probkb.factor_rows()
        variable_ids = {
            var for row in rows for var in row[:3] if var is not None
        }
        self.index = ComponentIndex.from_factor_rows(variable_ids, rows)
        self.marginals = dict(
            sample_components(
                [
                    (self.index.members(root), self.index.factors(root))
                    for root in self.index.roots()
                ],
                self.inference.sweeps,
                self.inference.seed,
                driver=self.driver,
            )
        )
        self._relation_of = {
            row[0]: row[1]
            for row in self.probkb.backend.project("TP", ("I", "R"))
        }
        self._store_marginals(self.marginals, full=True)
        self.probkb.generation += 1
        self._primed = True

    # -- the three delta phases --------------------------------------------------

    def ground(
        self, facts: Sequence["Fact"], max_iterations: Optional[int] = None
    ) -> PendingDelta:
        """Phase A (write lock): merge the flush and snapshot its blast
        radius.  New facts are queryable (unscored) when this returns."""
        if not self._primed:
            self.prime()
        grounding = self.grounder.expand(facts, max_iterations)
        if grounding.full_rebuild:
            pending = self._rebuild_pending(grounding)
        else:
            touched = self.index.add_factors(grounding.new_factor_rows)
            for row in grounding.new_fact_rows:
                self._relation_of[row[0]] = row[1]
            snapshots: List[ComponentSnapshot] = [
                (
                    self.index.anchor(root),
                    self.index.members(root),
                    self.index.factors(root),
                )
                for root in sorted(touched, key=self.index.anchor)
            ]
            pending = PendingDelta(
                grounding=grounding,
                snapshots=snapshots,
                touched_relations=self._relation_names(snapshots, grounding),
            )
        self.probkb.generation += 1
        return pending

    def _rebuild_pending(self, grounding: DeltaGroundingResult) -> PendingDelta:
        """Constraint deletions made the index stale: rebuild it from the
        freshly re-grounded TΦ and schedule every component."""
        rows = grounding.new_factor_rows  # the whole rebuilt TΦ
        variable_ids = {
            var for row in rows for var in row[:3] if var is not None
        }
        self.index = ComponentIndex.from_factor_rows(variable_ids, rows)
        self._relation_of = {
            row[0]: row[1]
            for row in self.probkb.backend.project("TP", ("I", "R"))
        }
        self.marginals = {}
        snapshots: List[ComponentSnapshot] = [
            (
                self.index.anchor(root),
                self.index.members(root),
                self.index.factors(root),
            )
            for root in self.index.roots()
        ]
        return PendingDelta(
            grounding=grounding,
            snapshots=snapshots,
            touched_relations=frozenset(),
            full_rebuild=True,
        )

    def _relation_names(
        self, snapshots: Sequence[ComponentSnapshot], grounding: DeltaGroundingResult
    ) -> FrozenSet[str]:
        """Predicates whose query results the flush may have changed:
        relations of the new facts plus of every member of a touched
        component (their probabilities move)."""
        relation_ids = set(grounding.touched_relation_ids)
        for _, members, _ in snapshots:
            for member in members:
                rid = self._relation_of.get(member)
                if rid is not None:
                    relation_ids.add(rid)
        relations = self.probkb.rkb.relations
        return frozenset(relations.name(rid) for rid in relation_ids)

    def infer(self, pending: PendingDelta) -> Dict[int, float]:
        """Phase B (no lock): re-sample the snapshot components.  Pure —
        reads only the snapshots, so it may overlap a later ground()."""
        return sample_components(
            [(members, rows) for _anchor, members, rows in pending.snapshots],
            self.inference.sweeps,
            self.inference.seed,
            driver=self.driver,
        )

    def commit(self, pending: PendingDelta, refreshed: Dict[int, float]) -> None:
        """Phase C (write lock): splice the refreshed marginals in."""
        if pending.full_rebuild:
            self.marginals = dict(refreshed)
            self._store_marginals(refreshed, full=True)
        else:
            self.marginals.update(refreshed)
            self._store_marginals(refreshed, full=False)
        self.probkb.generation += 1
        self._primed = True

    def expand_delta(
        self, facts: Sequence["Fact"], max_iterations: Optional[int] = None
    ) -> DeltaResult:
        """Ground + infer + commit in one call (the non-pipelined path)."""
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

    # -- TProb maintenance -------------------------------------------------------

    def _store_marginals(self, marginals: Dict[int, float], full: bool) -> None:
        backend = self.probkb.backend
        create_tprob_if_missing(backend)
        rows = sorted(marginals.items())
        if full:
            backend.truncate("TProb")
            backend.insert_rows("TProb", rows)
            return
        if not rows:
            return
        # upsert through a scratch table: delete the refreshed ids, then
        # re-insert — both sides stay inside the engine
        if not backend.has_table("TProbNew"):
            backend.create_table(
                make_schema("TProbNew", "I:int", "p:float"), dist_keys=["I"]
            )
        backend.truncate("TProbNew")
        backend.insert_rows("TProbNew", rows)
        backend.delete_in(
            "TProb",
            ["I"],
            Project(Scan("TProbNew", "N"), [(col("N.I"), "I")]),
        )
        backend.insert_from("TProb", Scan("TProbNew", "N"))
