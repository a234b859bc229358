"""Algorithm 1: SQL-based batch grounding.

Applies every rule of one MLN partition with a single join query, and
every partition of a round with one INSERT over their union, iterating
to the transitive closure of the ground atoms; then builds the ground
factor table TΦ with one INSERT over a second set of batch joins plus
the singleton factors from the uncertain extracted facts.

Quality control (Section 5) plugs in as the per-iteration
``applyConstraints`` step; on MPP backends ``redistribute(TΠ)`` refreshes
the redistributed materialized views after every merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..relational import HashJoin, Project, Scan, UnionAll, col
from .relmodel import RelationalKB
from .sqlgen import (
    CONSTRAINT_DELETE_COLUMNS,
    apply_constraints_key_plan,
    ground_atoms_plans,
    ground_factors_plans,
)

#: Both Tuffy and ProbKB iterate the same number of times; the paper's
#: quality runs converge by ~15 iterations.
DEFAULT_MAX_ITERATIONS = 15


def check_iteration_cap(max_iterations: Optional[int]) -> None:
    """Reject a grounding cap below 1 (None means the default cap)."""
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")


@dataclass
class IterationStats:
    """What one grounding iteration produced and cost."""

    iteration: int
    derived_rows: int  # rows produced by the Query 1-i joins (pre-merge)
    new_facts: int  # facts actually added by the set union
    removed_facts: int  # facts deleted by applyConstraints
    seconds: float  # modelled elapsed time of the iteration
    fact_count: int  # |TΠ| after the iteration


@dataclass
class GroundingResult:
    """Outcome of Algorithm 1."""

    iterations: List[IterationStats] = field(default_factory=list)
    converged: bool = False
    factors: int = 0
    factor_seconds: float = 0.0
    load_seconds: float = 0.0

    @property
    def total_new_facts(self) -> int:
        return sum(stats.new_facts for stats in self.iterations)

    @property
    def atoms_seconds(self) -> float:
        return sum(stats.seconds for stats in self.iterations)

    @property
    def total_seconds(self) -> float:
        return self.atoms_seconds + self.factor_seconds

    @property
    def elapsed_seconds(self) -> float:
        """Modelled time of the whole run (alias of :attr:`total_seconds`,
        under the name every pipeline result shares)."""
        return self.total_seconds

    @property
    def rows_touched(self) -> int:
        """Rows the run produced: batch-join derivations plus factors."""
        derived = sum(stats.derived_rows for stats in self.iterations)
        return derived + self.factors


class Grounder:
    """Runs Algorithm 1 over a loaded :class:`RelationalKB`."""

    def __init__(
        self,
        rkb: RelationalKB,
        apply_constraints: bool = True,
        semi_naive: bool = False,
    ) -> None:
        """``semi_naive=True`` enables delta grounding: each iteration's
        batch joins touch only facts derived in the previous iteration
        (at least one delta atom per derivation), the classic Datalog
        evaluation strategy.  The paper's Algorithm 1 is the naive
        variant (default); results are identical — see the
        ``ablation_semi_naive`` benchmark for the cost difference."""
        self.rkb = rkb
        self.backend = rkb.backend
        self.apply_constraints_each_iteration = apply_constraints
        self.semi_naive = semi_naive

    # -- ground atoms (Lines 2-7) ------------------------------------------------

    def ground_atoms_iteration(self, iteration: int) -> IterationStats:
        """One pass of Lines 3-7: apply all partitions, merge, constrain.

        Everything stays inside the engine: one INSERT stages every
        partition's batch join (each with its NOT EXISTS guard) into
        TNew, and one merge statement moves the staged facts into TΠ
        with freshly assigned ids — no result set ever travels to the
        client.  Three statements before Query 3, whatever the number
        of partitions or rules.
        """
        backend = self.backend
        start = backend.elapsed_seconds
        since = self.rkb.delta_start if self.semi_naive else None
        backend.truncate("TNew")
        derived = self.rkb.stage_candidates(
            ground_atoms_plans(self.rkb.nonempty_partitions, backend, since)
        )
        new_facts = self.rkb.merge_staged()
        removed = 0
        if self.apply_constraints_each_iteration:
            removed = self.apply_constraints()
        backend.after_facts_changed()
        return IterationStats(
            iteration=iteration,
            derived_rows=derived,
            new_facts=new_facts,
            removed_facts=removed,
            seconds=backend.elapsed_seconds - start,
            fact_count=self.rkb.fact_count(),
        )

    def ground_atoms(
        self, max_iterations: Optional[int] = None
    ) -> Tuple[List[IterationStats], bool]:
        """Iterate to closure (or the iteration cap); True if converged."""
        check_iteration_cap(max_iterations)
        cap = max_iterations if max_iterations is not None else DEFAULT_MAX_ITERATIONS
        iterations: List[IterationStats] = []
        converged = False
        for number in range(1, cap + 1):
            stats = self.ground_atoms_iteration(number)
            iterations.append(stats)
            if stats.new_facts == 0:
                converged = True
                break
        return iterations, converged

    # -- applyConstraints (Query 3) --------------------------------------------------

    def apply_constraints(self) -> int:
        """Remove facts of entities violating functional constraints.

        The doomed facts' keys are recorded in the graveyard table TDel
        first, so the merge's anti-join never re-admits them (otherwise
        the same error would be re-derived every following iteration).
        """
        removed, _ = self.apply_constraints_detailed()
        return removed

    def apply_constraints_detailed(self) -> Tuple[int, Dict[int, int]]:
        """:meth:`apply_constraints`, also reporting removals by
        constraint functionality type (Section 5's type I / type II)."""
        if not self.rkb.kb.constraints:
            return 0, {}
        removed = 0
        per_type: Dict[int, int] = {}
        for functionality_type, columns in CONSTRAINT_DELETE_COLUMNS.items():
            key_plan = apply_constraints_key_plan(functionality_type)
            doomed = Project(
                HashJoin(
                    Scan("TP", "T"),
                    key_plan,
                    [f"T.{columns[0]}", f"T.{columns[1]}"],
                    ["x", "C1"],
                ),
                [
                    (col("T.R"), "R"),
                    (col("T.x"), "x"),
                    (col("T.C1"), "C1"),
                    (col("T.y"), "y"),
                    (col("T.C2"), "C2"),
                ],
            )
            self.backend.insert_from("TDel", doomed)
            # a deleted fact leaves TΠ, and so the semi-naive delta too
            deleted = self.backend.delete_in("TP", list(columns), key_plan)
            per_type[functionality_type] = deleted
            removed += deleted
        return removed, per_type

    # -- ground factors (Lines 8-10) ----------------------------------------------------

    def ground_factors(self) -> Tuple[int, float]:
        """Build TΦ: every partition's factors plus the singleton
        factors, as one INSERT ... SELECT over their bag union
        (Proposition 1).

        Returns (factor rows inserted, modelled seconds).
        """
        backend = self.backend
        start = backend.elapsed_seconds
        inserted = backend.insert_from(
            "TF", UnionAll(ground_factors_plans(self.rkb.nonempty_partitions, backend))
        )
        return inserted, backend.elapsed_seconds - start
