"""PlanCheck as an analyzer pass: verify every grounding plan statically.

The plan verifiers (:mod:`repro.relational.verify` for logical plans,
:mod:`repro.mpp.verify` for MPP physical plans) normally run at
execution time behind the ``PROBKB_VERIFY_PLANS`` gate.  This pass runs
them *before* any table exists: it compiles Queries 1-i / 2-i for every
nonempty partition of the KB (exactly like :func:`repro.analyze.plans
.partition_plans`), checks each logical plan against the relational
schemas, and — when the environment is a multi-segment MPP cluster —
statically plans each query and checks the physical plan's distribution
soundness as well.  Findings surface as PKB201-212 in the ordinary
:class:`~repro.analyze.findings.AnalysisReport`, so the pre-flight gate
and ``repro analyze`` see plan-IR defects the same way they see unsafe
rules.

On a healthy build every plan verifies clean; a finding here means the
query compiler or the static planner produced an ill-formed plan and is
a bug in this repository, not in the user's KB program.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.backends import TPI_VIEWS
from ..core.clauses import PARTITION_INDEXES
from ..core.model import KnowledgeBase
from ..core.relmodel import TP_SCHEMA, mln_schema
from ..mpp.placement import table_dist
from ..mpp.plannodes import DistDesc
from ..mpp.static_planner import StaticPlanner
from ..mpp.verify import verify_physical_plan
from ..relational.types import ExecutionError
from ..relational.verify import VerificationReport, verify_plan
from .findings import Finding
from .plans import PlanEnvironment, kb_statistics, partition_plans


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


def verify_partition_plans(
    kb: KnowledgeBase, environment: Optional[PlanEnvironment] = None
) -> List[VerificationReport]:
    """Verify Queries 1-i / 2-i of every nonempty partition.

    Returns one report per logical plan, plus — when ``environment``
    has more than one effective segment — one per statically planned
    physical plan (named ``"<query> [static]"``).  Raises
    :class:`~repro.relational.types.ExecutionError` when the KB is too
    broken to plan at all; that situation is the other passes' business
    (see :func:`check_plan_soundness`).
    """
    env = environment or PlanEnvironment()
    schemas = grounding_schemas()
    reports: List[VerificationReport] = []
    plans = partition_plans(kb, env)
    mpp = env.effective_segments > 1
    planner: Optional[StaticPlanner] = None
    table_dists: Dict[str, DistDesc] = {}
    if mpp:
        catalog = kb_statistics(kb, env)
        planner = StaticPlanner(catalog, env.effective_segments)
        table_dists = {
            name: table_dist(catalog.distribution(name))
            for name in catalog.table_names
        }
    for name, _partition, plan in plans:
        reports.append(verify_plan(plan, tables=schemas, name=name))
        if planner is not None:
            static = planner.plan(plan)
            reports.append(
                verify_physical_plan(
                    static.root,
                    env.effective_segments,
                    table_dists,
                    name=f"{name} [static]",
                )
            )
    return reports


def check_plan_soundness(
    kb: KnowledgeBase, environment: Optional[PlanEnvironment] = None
) -> List[Finding]:
    """Turn plan-IR verification results into PKB201-212 findings."""
    try:
        reports = verify_partition_plans(kb, environment)
    except ExecutionError:
        # a KB too broken to plan is the other passes' business
        return []
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
