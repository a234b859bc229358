"""Developer tooling aimed at repro's own source code.

``repro.analyze`` inspects KB programs; this package inspects *us*:
an AST-based concurrency & determinism linter with stable ``RCnnn``
finding codes (:mod:`repro.devtools.lint`) and an opt-in runtime lock
sanitizer (:mod:`repro.devtools.sanitizer`).  CLI entry point:
``repro devtools lint``.
"""

from ..findings import ERROR, SEVERITIES, WARNING
from .findings import (
    RC_CODES,
    UNSUPPRESSIBLE,
    LintFinding,
    LintReport,
    LintUsageError,
)
from .lint import KERNEL_PATTERNS, lint_paths, lint_source
from .sanitizer import (
    GuardedByViolation,
    LockOrderInversion,
    LockSanitizer,
    SanitizedLock,
    enabled,
    get_sanitizer,
    make_lock,
    shadow_token,
)

__all__ = [
    "ERROR",
    "WARNING",
    "SEVERITIES",
    "RC_CODES",
    "UNSUPPRESSIBLE",
    "LintFinding",
    "LintReport",
    "LintUsageError",
    "KERNEL_PATTERNS",
    "lint_paths",
    "lint_source",
    "enabled",
    "make_lock",
    "shadow_token",
    "get_sanitizer",
    "LockSanitizer",
    "SanitizedLock",
    "LockOrderInversion",
    "GuardedByViolation",
]
