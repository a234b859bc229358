"""Physical plan records for the MPP simulator.

Where a motion goes is decided by :mod:`repro.mpp.placement`.  The MPP
executor feeds it actual intermediate sizes (standing in for Greenplum's
statistics-driven optimizer) and, while executing, records the physical
plan it ran as a tree of :class:`PhysicalNode` so benchmarks can print
Figure-4-style EXPLAIN ANALYZE output with per-operator timings; the
static planner feeds it estimates and builds the same kind of tree with
estimated rows and seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple


@dataclass
class PhysicalNode:
    """One operator of an executed MPP plan."""

    kind: str  # e.g. "Seq Scan", "Hash Join", "Redistribute Motion"
    detail: str = ""
    children: List["PhysicalNode"] = field(default_factory=list)
    #: modelled elapsed seconds for this operator alone (max over segments)
    seconds: float = 0.0
    #: output row count (total across segments)
    rows: int = 0
    #: distribution of this operator's output, declared by the planner
    #: that produced the node; None when the producer predates the
    #: verifier (e.g. plans deserialized from old snapshots)
    dist: Optional["DistDesc"] = None

    def describe(self) -> str:
        label = self.kind if not self.detail else f"{self.kind} {self.detail}"
        return f"{label}  (rows={self.rows}, {self.seconds * 1e3:.2f}ms)"

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def total_seconds(self) -> float:
        return self.seconds + sum(c.total_seconds() for c in self.children)

    def find_all(self, kind: str) -> List["PhysicalNode"]:
        found = [self] if self.kind == kind else []
        for child in self.children:
            found.extend(child.find_all(kind))
        return found

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "rows": self.rows,
            "seconds": self.seconds,
        }
        if self.detail:
            payload["detail"] = self.detail
        if self.dist is not None:
            payload["dist"] = {
                "kind": self.dist.kind,
                "columns": (
                    list(self.dist.columns)
                    if self.dist.columns is not None
                    else None
                ),
            }
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload


@dataclass(frozen=True)
class DistDesc:
    """Describes how an intermediate result is spread across segments."""

    kind: str  # "hash" | "replicated" | "arbitrary"
    columns: Optional[Tuple[str, ...]] = None

    @staticmethod
    def hash_on(columns: Iterable[str]) -> "DistDesc":
        return DistDesc("hash", tuple(columns))

    @staticmethod
    def replicated() -> "DistDesc":
        return DistDesc("replicated")

    @staticmethod
    def arbitrary() -> "DistDesc":
        return DistDesc("arbitrary")
