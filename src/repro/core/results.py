"""Typed results for the pipeline entry points.

``ground()``, ``apply_constraints()``, and ``infer()`` each return an
object that answers the same two questions the same way — how many
rows were touched and how long it took (modelled or wall-clock) —
while staying drop-in compatible with the plain values the old API
returned: :class:`ConstraintResult`
*is* the removed-facts int, :class:`InferenceResult` *is* the
``{Fact: probability}`` dict, and
:class:`~repro.core.grounding.GroundingResult` is unchanged in shape,
only extended.
"""

from __future__ import annotations

from typing import Dict, Optional


class ConstraintResult(int):
    """Outcome of one ``applyConstraints`` pass (Query 3).

    Subclasses ``int`` so existing callers that treat the return value
    as "number of facts removed" keep working; new callers also get the
    modelled time and the per-constraint-type breakdown.
    """

    elapsed_seconds: float
    per_type: Dict[int, int]

    def __new__(
        cls,
        removed: int,
        elapsed_seconds: float = 0.0,
        per_type: Optional[Dict[int, int]] = None,
    ) -> "ConstraintResult":
        self = super().__new__(cls, removed)
        self.elapsed_seconds = elapsed_seconds
        self.per_type = dict(per_type or {})
        return self

    @property
    def removed(self) -> int:
        return int(self)

    @property
    def rows_touched(self) -> int:
        return int(self)

    def __repr__(self) -> str:
        return (
            f"ConstraintResult(removed={int(self)}, "
            f"elapsed_seconds={self.elapsed_seconds:.6f}, "
            f"per_type={self.per_type})"
        )


class InferenceResult(dict):
    """Marginals plus how they were computed.

    Subclasses ``dict`` (``{Fact: probability}``) so existing callers —
    ``new_facts(marginals)``, ``materialize_marginals(marginals)``,
    plain lookups — keep working; new callers also see the method,
    its parameters, the wall-clock time, and the graph size.
    """

    method: str
    num_sweeps: int
    seed: int
    elapsed_seconds: float
    num_variables: int
    num_factors: int

    def __init__(
        self,
        marginals: Dict,
        method: str = "gibbs",
        num_sweeps: int = 0,
        seed: int = 0,
        elapsed_seconds: float = 0.0,
        num_variables: int = 0,
        num_factors: int = 0,
    ) -> None:
        super().__init__(marginals)
        self.method = method
        self.num_sweeps = num_sweeps
        self.seed = seed
        self.elapsed_seconds = elapsed_seconds
        self.num_variables = num_variables
        self.num_factors = num_factors

    @property
    def rows_touched(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return (
            f"InferenceResult({len(self)} marginals, method={self.method!r}, "
            f"num_sweeps={self.num_sweeps}, seed={self.seed}, "
            f"elapsed_seconds={self.elapsed_seconds:.3f})"
        )
