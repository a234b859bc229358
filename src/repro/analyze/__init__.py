"""Static analysis of KB programs (pre-flight quality control).

ProbKB's Section-5 quality control is dynamic: bad rules are caught
only after they have propagated wrong facts through grounding.  Almost
all of those defects — ill-typed rules, unsafe heads, duplicates,
self-violating constraints — are decidable from the schema, the class
hierarchy, and the rule text alone.  This package decides them::

    from repro.analyze import analyze

    report = analyze(kb)          # never mutates kb
    if report.has_errors:
        print(report.render())

The report feeds three gates: the ``repro analyze`` CLI subcommand, the
``GroundingConfig(analysis="off"|"warn"|"strict")`` pre-flight check in
:class:`~repro.api.ExpansionSession` / :class:`~repro.ProbKB`, and the
serving layer's rule-ingest endpoint.  ``docs/analyze.md`` documents
every finding code.
"""

from .analyzer import analyze
from .constraints import check_constraints
from .depgraph import (
    check_dependencies,
    dependency_edges,
    fixpoint_depth_bound,
    grounding_size_bound,
    strongly_connected_components,
)
from ..findings import ERROR, INFO, SEVERITIES, WARNING
from .findings import (
    AnalysisError,
    AnalysisReport,
    AnalysisWarning,
    CODES,
    Finding,
)
from .plans import (
    FACTS_TABLES,
    QueryPlanEstimate,
    StaticPlanReport,
    check_plans,
    estimate_plans,
    kb_statistics,
    partition_plans,
)
from .rules import check_dead_rules, check_duplicates, live_relations
from .safety import check_rule_shape, check_safety
from .typecheck import SchemaIndex, check_types
from .verify import (
    check_plan_soundness,
    grounding_schemas,
    verify_partition_plans,
    verify_report,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "AnalysisWarning",
    "CODES",
    "ERROR",
    "FACTS_TABLES",
    "Finding",
    "INFO",
    "QueryPlanEstimate",
    "SEVERITIES",
    "SchemaIndex",
    "StaticPlanReport",
    "WARNING",
    "analyze",
    "check_constraints",
    "check_dead_rules",
    "check_dependencies",
    "check_duplicates",
    "check_plan_soundness",
    "check_plans",
    "check_rule_shape",
    "check_safety",
    "check_types",
    "dependency_edges",
    "estimate_plans",
    "fixpoint_depth_bound",
    "grounding_schemas",
    "grounding_size_bound",
    "kb_statistics",
    "live_relations",
    "partition_plans",
    "strongly_connected_components",
    "verify_partition_plans",
    "verify_report",
]
