"""PlanCheck as an analyzer pass: verify every grounding plan statically.

The plan verifiers (:mod:`repro.relational.verify` for logical plans,
:mod:`repro.mpp.verify` for MPP physical plans) normally run at
execution time behind the ``PROBKB_VERIFY_PLANS`` gate.  This pass runs
them *before* any table exists: it takes the queries of a
:class:`~repro.analyze.plans.StaticPlanReport` — the same logical plans
and statically planned trees that PKB101-105 and EXPLAIN read — checks
each logical plan against the relational schemas, and — when the
backend is a multi-segment MPP cluster — checks each planned physical
tree's distribution soundness as well.  Findings surface as PKB201-212
in the ordinary :class:`~repro.analyze.findings.AnalysisReport`, so the
pre-flight gate and ``repro analyze`` see plan-IR defects the same way
they see unsafe rules.

On a healthy build every plan verifies clean; a finding here means the
query compiler or the static planner produced an ill-formed plan and is
a bug in this repository, not in the user's KB program.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.backends import TPI_VIEWS, Backend
from ..core.clauses import PARTITION_INDEXES
from ..core.model import KnowledgeBase
from ..core.relmodel import TP_SCHEMA, mln_schema
from ..mpp.placement import table_dist
from ..mpp.plannodes import DistDesc
from ..mpp.verify import verify_physical_plan
from ..relational.types import ExecutionError
from ..relational.verify import VerificationReport, verify_plan
from .findings import Finding
from .plans import StaticPlanReport, estimate_plans


def grounding_schemas() -> Dict[str, object]:
    """Schemas of every table a grounding plan may scan.

    The TΠ views (Tx/Ty/Txy/T0) are projections of TΠ under different
    distributions, so they share ``TP_SCHEMA``'s columns.
    """
    schemas: Dict[str, object] = {"TP": TP_SCHEMA}
    for view_name in TPI_VIEWS:
        schemas[view_name] = TP_SCHEMA
    for partition in PARTITION_INDEXES:
        schemas[f"M{partition}"] = mln_schema(partition)
    return schemas


def verify_report(report: StaticPlanReport) -> List[VerificationReport]:
    """Verify every query of a static plan report.

    Returns one report per logical plan, each followed — when the
    report's backend has more than one segment — by one for its
    statically planned physical plan (named ``"<query> [static]"``).
    """
    schemas = grounding_schemas()
    nseg = report.backend.nseg
    catalog = report.catalog
    table_dists: Dict[str, DistDesc] = {}
    if nseg > 1:
        table_dists = {
            name: table_dist(catalog.distribution(name))
            for name in catalog.table_names
        }
    reports: List[VerificationReport] = []
    for query in report.queries:
        reports.append(verify_plan(query.plan, tables=schemas, name=query.name))
        if nseg > 1:
            reports.append(
                verify_physical_plan(
                    query.root, nseg, table_dists, name=f"{query.name} [static]"
                )
            )
    return reports


def verify_partition_plans(
    kb: KnowledgeBase, backend: Optional[Backend] = None
) -> List[VerificationReport]:
    """Verify Queries 1-i / 2-i of every nonempty partition, planned for
    ``backend`` (see :func:`verify_report`).  Raises
    :class:`~repro.relational.types.ExecutionError` when the KB is too
    broken to plan at all; that situation is the other passes' business
    (see :func:`check_plan_soundness`).
    """
    return verify_report(estimate_plans(kb, backend))


def soundness_findings(reports: List[VerificationReport]) -> List[Finding]:
    """Turn plan-IR verification results into PKB201-212 findings."""
    findings: List[Finding] = []
    for report in reports:
        for f in report.findings:
            findings.append(
                Finding(
                    code=f.code,
                    message=f"{report.plan_name}: {f.path}: {f.message}",
                    severity=f.severity,
                    details={
                        **f.details,
                        "query": report.plan_name,
                        "node": f.path,
                    },
                )
            )
    return findings


def check_plan_soundness(
    kb: KnowledgeBase, backend: Optional[Backend] = None
) -> List[Finding]:
    """PKB201-212 findings for the KB's grounding plans on ``backend``."""
    try:
        reports = verify_partition_plans(kb, backend)
    except ExecutionError:
        # a KB too broken to plan is the other passes' business
        return []
    return soundness_findings(reports)
