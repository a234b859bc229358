"""Delta grounding: O(delta) factor maintenance for a flush of evidence.

Atom closure already costs O(delta) under the semi-naive grounder; the
expensive part of the existing ingest path is rebuilding TΦ from
scratch (factors are a function of the final atom set).  This module
avoids the rebuild: the facts the flush merged — evidence and derived —
are TΠ's id range from the sequence value it started at, and for each
partition the Query 2-i join is re-run once per occurrence of the facts
table (the body positions, then the head): occurrence k reads that
range, the occurrences before k only older facts, the ones after k all
of TΠ.  A ground factor is *new* exactly when at least one participant
is new (the rules are monotone), and it lands in the variant of its
first new participant alone, so the union of the variants is exactly
TΦ_new with every factor once; the flush reads it with one query and
appends it to TΦ with one insert, keeping the cross-partition bag
semantics of TΦ (Proposition 1: within a partition the join output is
duplicate-free).

Constraint violations break monotonicity — applyConstraints deletes
facts, which can orphan existing factors — so a flush that removed
anything falls back to a full TΦ rebuild (reported via
``full_rebuild``; see docs/incremental.md for the ops guidance).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TYPE_CHECKING

from ..core.grounding import Grounder, IterationStats, check_iteration_cap
from ..core.sqlgen import ground_factors_delta_plans, singleton_factors_plan
from ..relational import Scan, UnionAll
from ..relational.types import Row

if TYPE_CHECKING:
    from ..core.model import Fact
    from ..core.probkb import ProbKB


@dataclass
class DeltaGroundingResult:
    """What one delta-grounding pass merged into TΠ and TΦ."""

    added_evidence: int  # genuinely new evidence facts (post anti-join)
    #: the sequence value the flush started at: the facts it merged and
    #: kept are the TΠ rows of :meth:`RelationalKB.facts_since` this id
    first_fact_id: int
    new_factor_rows: List[Row]  # TΦ rows added (or ALL rows on rebuild)
    iterations: List[IterationStats] = field(default_factory=list)
    converged: bool = True
    removed_facts: int = 0
    full_rebuild: bool = False
    elapsed_seconds: float = 0.0

    @property
    def new_facts(self) -> int:
        """Facts the flush merged, counting any its own Query 3 deleted."""
        return self.added_evidence + sum(stats.new_facts for stats in self.iterations)

    @property
    def new_factors(self) -> int:
        return len(self.new_factor_rows)


class DeltaGrounder:
    """Grounds one evidence flush incrementally against a ProbKB."""

    def __init__(self, probkb: "ProbKB") -> None:
        self.probkb = probkb
        self.rkb = probkb.rkb
        self.backend = probkb.backend

    def expand(
        self, facts: Sequence["Fact"], max_iterations: Optional[int] = None
    ) -> DeltaGroundingResult:
        """Merge ``facts``, close the atoms, and maintain TΦ in O(delta)."""
        check_iteration_cap(max_iterations)  # before the facts are merged
        started = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
        rkb = self.rkb
        grounder = Grounder(
            rkb,
            apply_constraints=self.probkb.grounding_config.apply_constraints,
            semi_naive=True,
        )
        first_fact_id = rkb.next_fact_id
        added = rkb.add_evidence(facts)
        iterations, converged = grounder.ground_atoms(max_iterations)
        result = DeltaGroundingResult(
            added_evidence=added,
            first_fact_id=first_fact_id,
            new_factor_rows=[],
            iterations=iterations,
            converged=converged,
            removed_facts=sum(stats.removed_facts for stats in iterations),
        )
        if result.removed_facts > 0:
            # applyConstraints deleted facts: existing factors may now be
            # orphaned, so incremental maintenance is unsound — rebuild.
            result.full_rebuild = True
            self.backend.truncate("TF")
            grounder.ground_factors()
            result.new_factor_rows = self.backend.query(Scan("TF")).rows
        else:
            # nothing was deleted: the id range is exactly the new facts
            result.new_factor_rows = self._ground_delta_factors(first_fact_id)
        result.elapsed_seconds = time.perf_counter() - started  # lint: disable=RC003 (timing metadata, not sampling)
        return result

    def _ground_delta_factors(self, since: int) -> List[Row]:
        """TΦ_new, read and appended once: every partition's disjoint
        Query 2-i variants over the facts with ids from ``since`` on,
        plus the unit factors of the flush's new *evidence* (non-NULL w)."""
        backend = self.backend
        plans = [
            plan
            for partition in self.rkb.nonempty_partitions
            for plan in ground_factors_delta_plans(partition, backend, since)
        ]
        plans.append(singleton_factors_plan(backend, since))
        rows = backend.query(UnionAll(plans)).rows
        if rows:
            backend.insert_rows("TF", rows)
        return rows
