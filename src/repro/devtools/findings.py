"""Typed lint findings: the concurrency linter's output vocabulary.

Aimed at repro's *own* source instead of KB programs: every defect
class the concurrency & determinism linter detects has a stable
``RC``-prefixed code with a fixed default severity, so the CI gate,
suppression comments, and humans reading a report all key on the same
identifiers.  The table below is registered in :mod:`repro.findings`
(the one registry, shared with the KB analyzer and the plan verifiers);
``docs/devtools.md`` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..findings import ERROR, WARNING, FindingBase, ReportBase, register_codes

#: code -> (default severity, one-line title).  Codes are append-only:
#: once published a code never changes meaning or disappears.
RC_CODES: Dict[str, Tuple[str, str]] = register_codes({
    "RC001": (ERROR, "field declared '# guarded by: <lock>' mutated outside "
                     "a 'with <lock>:' block"),
    "RC002": (ERROR, "lock-order inversion: cycle in the static "
                     "lock-acquisition graph"),
    "RC003": (ERROR, "nondeterminism inside an inference/grounding kernel "
                     "(time.*, unseeded random, id())"),
    "RC004": (WARNING, "blocking .get()/.join() without a timeout inside a "
                       "thread loop"),
    "RC005": (ERROR, "thread target has no Exception handler: an uncaught "
                     "error kills the thread silently"),
    "RC006": (WARNING, "wall-clock time.time() used in duration arithmetic "
                       "(use time.monotonic())"),
    "RC007": (ERROR, "unknown code in a '# lint: disable=' comment"),
    "RC008": (WARNING, "unused suppression: '# lint: disable=' matched no "
                       "finding"),
    "RC009": (ERROR, "direct PhysicalNode construction outside the MPP "
                     "planners (plans must come from a planner so the "
                     "verifier sees them)"),
})

#: suppression-hygiene codes are never themselves suppressible — a
#: disable comment silencing the disable checker would be circular
UNSUPPRESSIBLE = frozenset({"RC007", "RC008"})


@dataclass(frozen=True)
class LintFinding(FindingBase):
    """One defect at one source location."""

    code: str
    message: str
    path: str
    line: int
    severity: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.severity} {self.message}"


@dataclass(frozen=True)
class LintReport(ReportBase[LintFinding]):
    """Everything one :func:`repro.devtools.lint_paths` run found."""

    findings: Tuple[LintFinding, ...] = ()
    files_scanned: int = 0

    def summary(self) -> str:
        return f"{super().summary()} across {self.files_scanned} files"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "files_scanned": self.files_scanned,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)


class LintUsageError(ValueError):
    """A lint invocation that cannot run (bad path, unreadable file)."""
