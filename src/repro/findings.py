"""The one findings vocabulary: severities, the code registry, and the
shared halves of every finding and report.

Three subsystems report typed findings — the KB analyzer (``PKB0xx`` /
``PKB1xx``, :mod:`repro.analyze.findings`), the plan verifiers
(``PKB2xx``, :mod:`repro.relational.verify` and :mod:`repro.mpp.verify`)
and the concurrency linter (``RCnnn``, :mod:`repro.devtools.findings`).
Each registers its code table here and subclasses the two mixins below
only for its location fields, JSON shape and ``render()``.  This module
imports nothing from ``repro``, so any layer may depend on it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)

CodeTable = Dict[str, Tuple[str, str]]

#: code -> (default severity, one-line title), every subsystem's table
_REGISTRY: CodeTable = {}


def register_codes(table: CodeTable) -> CodeTable:
    """Add a subsystem's code table to the registry and return it."""
    _REGISTRY.update(table)
    return table


def code_entry(code: str) -> Tuple[str, str]:
    """``(default severity, title)`` of a registered code."""
    try:
        return _REGISTRY[code]
    except KeyError:
        raise ValueError(f"unknown finding code {code!r}") from None


class FindingBase:
    """Severity/title resolution shared by the frozen finding dataclasses
    (which declare ``code``, ``message`` and ``severity=""`` themselves,
    each in its own positional order)."""

    code: str
    severity: str

    def __post_init__(self) -> None:
        default_severity, _ = code_entry(self.code)
        if not self.severity:
            object.__setattr__(self, "severity", default_severity)
        elif self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def title(self) -> str:
        return code_entry(self.code)[1]


F = TypeVar("F", bound=FindingBase)


class ReportBase(Generic[F]):
    """Severity filters and JSON shared by the frozen report dataclasses
    (which declare ``findings`` and their own ``to_dict``/``render``)."""

    findings: Tuple[F, ...]

    def __iter__(self) -> Iterator[F]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def _with_severity(self, severity: str) -> List[F]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> List[F]:
        return self._with_severity(ERROR)

    @property
    def warnings(self) -> List[F]:
        return self._with_severity(WARNING)

    @property
    def infos(self) -> List[F]:
        return self._with_severity(INFO)

    @property
    def has_errors(self) -> bool:
        return any(f.severity == ERROR for f in self.findings)

    def by_code(self, code: str) -> List[F]:
        return [f for f in self.findings if f.code == code]

    @property
    def codes(self) -> List[str]:
        return sorted({f.code for f in self.findings})

    def summary(self) -> str:
        return f"{len(self.errors)} errors, {len(self.warnings)} warnings"

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)
