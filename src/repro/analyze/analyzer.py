"""The analyzer entry point: run every pass over a KB, return a report.

``analyze`` is pure — it never mutates the knowledge base (a property
test asserts this), so running it in the ``"warn"`` pre-flight gate is
guaranteed to leave grounding output bit-identical to ``"off"``.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.backends import Backend
from ..core.model import KnowledgeBase
from ..relational.types import ExecutionError
from .constraints import check_constraints
from .depgraph import check_dependencies
from .findings import AnalysisReport, Finding
from .plans import check_plans, estimate_plans
from .rules import check_dead_rules, check_duplicates
from .safety import check_safety
from .typecheck import SchemaIndex, check_types
from .verify import soundness_findings, verify_report


def analyze(
    kb: KnowledgeBase,
    include_infos: bool = True,
    backend: Optional[Backend] = None,
) -> AnalysisReport:
    """Statically analyze a KB program before grounding.

    Passes: safety/shape (PKB001-005, 007, 015), type-checking
    (PKB006), duplicates (PKB008), dead rules (PKB009), constraint
    consistency (PKB010-012), dependency analysis (PKB013-014), static
    plan analysis (PKB101-105), and plan-IR verification (PKB201-212)
    of the grounding queries planned for ``backend`` (default: the
    paper's 8-segment MPP cluster with matviews).  Every rule is
    classified once and every query planned once, whatever the passes.
    """
    index = SchemaIndex(kb)
    findings: List[Finding] = []
    findings.extend(check_safety(kb, index))
    findings.extend(check_types(kb, index))
    findings.extend(check_duplicates(kb, index))
    findings.extend(check_dead_rules(kb, index))
    findings.extend(check_constraints(kb, index))
    try:
        plans = estimate_plans(kb, backend, index)
    except ExecutionError:
        pass  # a KB too broken to plan is the other passes' business
    else:
        findings.extend(check_plans(plans, include_infos=include_infos))
        findings.extend(soundness_findings(verify_report(plans)))
    if include_infos:
        findings.extend(check_dependencies(kb, index))
    findings.sort(
        key=lambda f: (
            f.rule_index if f.rule_index is not None else len(kb.rules),
            f.code,
        )
    )
    stats = kb.stats()
    return AnalysisReport(
        findings=tuple(findings),
        stats={
            "rules": stats["rules"],
            "constraints": stats["constraints"],
            "facts": stats["facts"],
            "relations": stats["relations"],
            "classes": stats["classes"],
        },
    )
