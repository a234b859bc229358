"""Typed findings: the analyzer's output vocabulary.

Every defect the static analyzer can detect has a stable ``PKB``-prefixed
code with a fixed default severity, so CI gates, the serving layer, and
humans reading a report all key on the same identifiers.  The table
below is registered in :mod:`repro.findings` (the one registry, which
also holds the severities and the shared finding/report behaviour);
``docs/analyze.md`` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..findings import (
    ERROR,
    INFO,
    WARNING,
    FindingBase,
    ReportBase,
    register_codes,
)
from ..mpp.verify import PHYSICAL_CODES
from ..relational.verify import LOGICAL_CODES

#: code -> (default severity, one-line title).  Codes are append-only:
#: once published a code never changes meaning or disappears.
CODES: Dict[str, Tuple[str, str]] = register_codes({
    "PKB001": (ERROR, "rule references an unknown relation"),
    "PKB002": (ERROR, "atom arity mismatch (relations are binary)"),
    "PKB003": (ERROR, "unsafe rule: head variable unbound in the body"),
    "PKB004": (ERROR, "untyped variable (no class annotation)"),
    "PKB005": (ERROR, "rule shape outside the MLN partitions M1-M6"),
    "PKB006": (ERROR, "ill-typed rule: variable classes can never satisfy "
                      "the relation signatures"),
    "PKB007": (ERROR, "rule references an unknown class"),
    "PKB008": (WARNING, "duplicate rule (structurally equivalent under "
                        "canonical renaming)"),
    "PKB009": (WARNING, "dead rule: can never fire in any fixpoint "
                        "iteration"),
    "PKB010": (ERROR, "constraint references an unknown relation"),
    "PKB011": (ERROR, "constraint references an unknown class"),
    "PKB012": (ERROR, "rule head is guaranteed by its own body to violate "
                      "a functional constraint"),
    "PKB013": (INFO, "recursive rule dependency cycle"),
    "PKB014": (INFO, "static fixpoint-depth and grounding-size bounds"),
    "PKB015": (WARNING, "non-finite or non-positive rule weight"),
    # PKB1xx: static plan analysis (repro.analyze.plans)
    "PKB101": (WARNING, "predicted broadcast of a large relation"),
    "PKB102": (WARNING, "non-collocated batch join redistributes the facts "
                        "table"),
    "PKB103": (ERROR, "predicted cardinality explosion in a grounding join"),
    "PKB104": (WARNING, "redistribution on a heavily skewed join key"),
    "PKB105": (INFO, "static plan cost summary"),
})

# PKB2xx: plan-IR verification (PlanCheck).  The code tables live next
# to the verifiers — PKB201-208 (logical plans) in
# ``repro.relational.verify`` and PKB209-212 (MPP physical plans) in
# ``repro.mpp.verify`` — and are listed here too so CODES is everything
# an AnalysisReport can carry (docs/plan-ir.md renders them).
CODES.update(LOGICAL_CODES)
CODES.update(PHYSICAL_CODES)


@dataclass(frozen=True)
class Finding(FindingBase):
    """One defect (or informational note) in a KB program."""

    code: str
    message: str
    severity: str = ""
    #: textual form of the offending rule, if the finding is about one
    rule: Optional[str] = None
    #: index of the rule in ``kb.rules`` (stable across the report)
    rule_index: Optional[int] = None
    #: textual form of the offending constraint, if any
    constraint: Optional[str] = None
    #: machine-readable extras (variable names, class names, bounds, ...)
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.rule is not None:
            payload["rule"] = self.rule
        if self.rule_index is not None:
            payload["rule_index"] = self.rule_index
        if self.constraint is not None:
            payload["constraint"] = self.constraint
        if self.details:
            payload["details"] = dict(self.details)
        return payload

    def render(self) -> str:
        where = ""
        if self.rule_index is not None:
            where = f" [rule #{self.rule_index}]"
        elif self.constraint is not None:
            where = f" [constraint {self.constraint}]"
        return f"{self.code} {self.severity:<7}{where} {self.message}"


@dataclass(frozen=True)
class AnalysisReport(ReportBase[Finding]):
    """Everything one :func:`repro.analyze.analyze` run found."""

    findings: Tuple[Finding, ...] = ()
    #: KB shape at analysis time (rules, constraints, facts, ...)
    stats: Mapping[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        return f"{super().summary()}, {len(self.infos)} infos"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "stats": dict(self.stats),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
        }

    def render(self, include_infos: bool = True) -> str:
        lines = [
            f.render()
            for f in self.findings
            if include_infos or f.severity != INFO
        ]
        analyzed = ", ".join(
            f"{count} {name}" for name, count in self.stats.items()
        )
        lines.append(self.summary() + (f" — analyzed {analyzed}" if analyzed else ""))
        return "\n".join(lines)


class AnalysisError(ValueError):
    """Raised by the strict pre-flight gate when a KB program has errors."""

    def __init__(self, report: AnalysisReport) -> None:
        errors = report.errors
        shown = "; ".join(f.render() for f in errors[:5])
        suffix = "" if len(errors) <= 5 else f" (+{len(errors) - 5} more)"
        super().__init__(
            f"static analysis found {len(errors)} error(s) "
            f"(analysis='strict' refuses to ground): {shown}{suffix}"
        )
        self.report = report


class AnalysisWarning(UserWarning):
    """Category used by the ``analysis='warn'`` pre-flight gate."""
