"""Static plan analysis of a KB program's grounding queries.

The other analyzer passes look at the *rules*.  This pass looks at the
*queries* those rules will become: it compiles each nonempty partition's
batch grounding queries (Queries 1-i and 2-i of Algorithm 1) into
logical plans for the :class:`~repro.core.backends.Backend` the KB will
run on — before any table is loaded, without executing anything — and
runs the MPP static planner (:mod:`repro.mpp.static_planner`) over
statistics synthesized straight from the knowledge base.

Because entity/class/relation *names* map bijectively onto the integer
ids the loader would mint, per-column distinct counts and skew computed
over names equal those of the loaded tables, so the estimates here match
what :func:`~repro.mpp.static_planner.collect_mpp_statistics` would
report after loading.

Outputs:

* :func:`estimate_plans` — a :class:`StaticPlanReport` with a
  Figure-4-style EXPLAIN tree, estimated rows/seconds per operator, and
  every predicted motion, for ``repro explain`` and ``GET /explain``.
* :func:`check_plans` — PKB101-105 findings from that report: broadcast
  of a large relation, non-collocated batch join over the facts table,
  predicted cardinality explosion, skewed redistribution key, and an
  informational cost summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.backends import TPI_VIEWS, Backend, MPPBackend
from ..core.clauses import PARTITION_INDEXES
from ..core.model import KnowledgeBase
from ..core.relmodel import TP_SCHEMA, mln_schema
from ..core.sqlgen import ground_atoms_plan, ground_factors_plan
from ..mpp.plannodes import PhysicalNode
from ..mpp.static_planner import JoinEstimate, MotionEstimate, StaticPlanner
from ..relational.plan import PlanNode
from ..relational.statistics import (
    SINGLE_NODE_DIST,
    StatisticsCatalog,
    TableDistribution,
    table_stats,
)
from ..relational.types import Row
from .findings import Finding
from .typecheck import SchemaIndex

#: Stored tables that hold the facts (TΠ itself plus its Section-4.4
#: redistributed materialized views).
FACTS_TABLES = frozenset({"TP"} | set(TPI_VIEWS))

# Finding thresholds, deliberately conservative: toy KBs never trip
# them, the paper-scale pathologies (Figure 4's broadcast, a fan-out
# cross product) do.
#: a broadcast/redistribute moving at least this many rows is "large"
LARGE_MOTION_ROWS = 10_000
#: a join is an explosion when output > factor * (left + right) ...
EXPLOSION_FACTOR = 10.0
#: ... and at least this many rows (tiny KBs can never explode)
EXPLOSION_MIN_ROWS = 5_000
#: most-common-value share that counts as a skewed join key
SKEW_MCV_FRACTION = 0.5
#: minimum join input rows before skew matters
SKEW_MIN_ROWS = 1_000


def _mln_rows(index: SchemaIndex) -> Dict[int, List[Row]]:
    """MLN identifier rows per partition, deduplicated like the loader
    (Proposition 1 requires M_i duplicate-free).  Rules that do not
    classify are the safety pass's business (PKB001-007) and are skipped."""
    rows: Dict[int, List[Row]] = {i: [] for i in PARTITION_INDEXES}
    seen: Dict[int, Set[Row]] = {i: set() for i in PARTITION_INDEXES}
    for _, classified in index.classified:
        row: Row = (
            tuple(classified.relations)
            + tuple(classified.classes)
            + (classified.weight,)
        )
        if row in seen[classified.partition]:
            continue
        seen[classified.partition].add(row)
        rows[classified.partition].append(row)
    return rows


def kb_statistics(
    kb: KnowledgeBase,
    backend: Optional[Backend] = None,
    index: Optional[SchemaIndex] = None,
) -> StatisticsCatalog:
    """Synthesize the statistics catalog the KB *would* have once loaded
    into ``backend`` (default: the paper's 8-segment matview cluster).

    Runs before any table exists (the pre-flight gate fires before
    :class:`~repro.core.relmodel.RelationalKB` loads), so the rows are
    rebuilt from the KB with names standing in for dictionary ids.
    """
    backend = backend or MPPBackend()
    mpp = backend.is_mpp
    catalog = StatisticsCatalog(num_segments=backend.nseg)

    # TΠ — deduplicated on the fact key, exactly like the loader
    fact_keys: Set[Tuple[str, str, str, str, str]] = set()
    tp_rows: List[Row] = []
    for fact in kb.facts:
        key = (
            fact.relation,
            fact.subject,
            fact.subject_class,
            fact.object,
            fact.object_class,
        )
        if key in fact_keys:
            continue
        fact_keys.add(key)
        tp_rows.append((len(tp_rows),) + key + (fact.weight,))
    tp_stats = table_stats(TP_SCHEMA.column_names, tp_rows)
    catalog.add(
        "TP",
        tp_stats,
        TableDistribution.hash_on(["I"]) if mpp else SINGLE_NODE_DIST,
    )
    if mpp and backend.use_matviews:
        # the views mirror TΠ's content under a different distribution
        for view_name, keys in TPI_VIEWS.items():
            catalog.add(view_name, tp_stats, TableDistribution.hash_on(keys))

    # MLN tables — replicated on MPP (dimension-table optimization)
    for partition, rows in _mln_rows(index or SchemaIndex(kb)).items():
        if not rows:
            continue
        stats = table_stats(mln_schema(partition).column_names, rows)
        distribution = (
            TableDistribution.replicated() if mpp else SINGLE_NODE_DIST
        )
        catalog.add(f"M{partition}", stats, distribution)
    return catalog


@dataclass
class QueryPlanEstimate:
    """The static planner's verdict on one grounding query."""

    name: str  # e.g. "Query 1-3"
    partition: int
    #: the logical plan the static planner planned (not serialized)
    plan: PlanNode
    root: PhysicalNode
    estimated_rows: int
    estimated_seconds: float
    joins: List[JoinEstimate] = field(default_factory=list)
    motions: List[MotionEstimate] = field(default_factory=list)

    def explain(self) -> str:
        return self.root.explain()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "partition": self.partition,
            "estimated_rows": self.estimated_rows,
            "estimated_seconds": self.estimated_seconds,
            "plan": self.root.to_dict(),
            "joins": [
                {
                    "detail": j.detail,
                    "left_rows": j.left_rows,
                    "right_rows": j.right_rows,
                    "est_rows": j.est_rows,
                    "collocated": j.collocated,
                    "key_mcv": j.key_mcv,
                    "source_tables": list(j.source_tables),
                }
                for j in self.joins
            ],
            "motions": [
                {
                    "kind": m.kind,
                    "rows": m.rows,
                    "shipped": m.shipped,
                    "source_tables": list(m.source_tables),
                    "detail": m.detail,
                }
                for m in self.motions
            ],
        }


@dataclass
class StaticPlanReport:
    """Every grounding query's static plan, for one backend."""

    backend: Backend
    #: the synthesized statistics the queries were planned over
    catalog: StatisticsCatalog
    queries: List[QueryPlanEstimate] = field(default_factory=list)

    @property
    def total_estimated_seconds(self) -> float:
        return sum(q.estimated_seconds for q in self.queries)

    @property
    def environment(self) -> Dict[str, Any]:
        """The physical design planned for, as the JSON reports state it."""
        return {
            "kind": "mpp" if self.backend.is_mpp else "single",
            "num_segments": self.backend.nseg,
            "use_matviews": self.backend.use_matviews,
        }

    def query(self, name: str) -> QueryPlanEstimate:
        for q in self.queries:
            if q.name == name:
                return q
        raise KeyError(f"no plan for query {name!r}")

    def render(self) -> str:
        env = self.environment
        lines = [
            f"static plan analysis — backend={env['kind']}, "
            f"segments={env['num_segments']}, "
            f"matviews={'on' if env['use_matviews'] else 'off'}"
        ]
        for q in self.queries:
            lines.append("")
            lines.append(
                f"{q.name}  (est rows={q.estimated_rows}, "
                f"est {q.estimated_seconds * 1e3:.2f}ms)"
            )
            lines.append(q.explain())
        lines.append("")
        lines.append(
            f"total estimated {self.total_estimated_seconds * 1e3:.2f}ms "
            f"over {len(self.queries)} queries"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "environment": self.environment,
            "queries": [q.to_dict() for q in self.queries],
            "total_estimated_seconds": self.total_estimated_seconds,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def partition_plans(
    kb: KnowledgeBase,
    backend: Optional[Backend] = None,
    index: Optional[SchemaIndex] = None,
) -> List[Tuple[str, int, PlanNode]]:
    """Compile Queries 1-i / 2-i for every nonempty partition, scanning
    the copies of TΠ ``backend`` keeps (default: the paper's cluster)."""
    backend = backend or MPPBackend()
    index = index or SchemaIndex(kb)
    plans: List[Tuple[str, int, PlanNode]] = []
    for partition in sorted({c.partition for _, c in index.classified}):
        plans.append(
            (f"Query 1-{partition}", partition, ground_atoms_plan(partition, backend))
        )
        plans.append(
            (f"Query 2-{partition}", partition, ground_factors_plan(partition, backend))
        )
    return plans


def estimate_plans(
    kb: KnowledgeBase,
    backend: Optional[Backend] = None,
    index: Optional[SchemaIndex] = None,
) -> StaticPlanReport:
    """Statically plan and price every grounding query of this KB for
    ``backend`` (default: the paper's 8-segment matview cluster).

    Raises :class:`~repro.relational.types.ExecutionError` when the KB
    is too broken to plan; the analyzer then reports no plan findings.
    """
    backend = backend or MPPBackend()
    index = index or SchemaIndex(kb)
    catalog = kb_statistics(kb, backend, index)
    planner = StaticPlanner(catalog, backend.nseg)
    queries: List[QueryPlanEstimate] = []
    for name, partition, plan in partition_plans(kb, backend, index):
        static = planner.plan(plan)
        queries.append(
            QueryPlanEstimate(
                name=name,
                partition=partition,
                plan=plan,
                root=static.root,
                estimated_rows=static.estimated_rows,
                estimated_seconds=static.estimated_seconds,
                joins=static.joins,
                motions=static.motions,
            )
        )
    return StaticPlanReport(backend=backend, catalog=catalog, queries=queries)


def check_plans(
    report: StaticPlanReport, include_infos: bool = True
) -> List[Finding]:
    """Turn a static plan report into PKB101-105 findings."""
    findings: List[Finding] = []
    for query in report.queries:
        base = {"query": query.name, "partition": query.partition}
        for motion in query.motions:
            tables = ", ".join(motion.source_tables) or "an intermediate"
            if motion.kind == "broadcast" and motion.rows >= LARGE_MOTION_ROWS:
                findings.append(
                    Finding(
                        code="PKB101",
                        message=(
                            f"{query.name} predicts a broadcast of "
                            f"~{int(motion.rows)} rows from {tables} "
                            f"(threshold {LARGE_MOTION_ROWS}); consider "
                            f"the matviews policy so the join collocates"
                        ),
                        details={
                            **base,
                            "rows": int(motion.rows),
                            "shipped": int(motion.shipped),
                            "source_tables": list(motion.source_tables),
                        },
                    )
                )
            if (
                motion.kind == "redistribute"
                and motion.rows >= LARGE_MOTION_ROWS
                and FACTS_TABLES & set(motion.source_tables)
            ):
                findings.append(
                    Finding(
                        code="PKB102",
                        message=(
                            f"{query.name} predicts a non-collocated batch "
                            f"join: ~{int(motion.rows)} facts rows from "
                            f"{tables} are redistributed {motion.detail} "
                            f"(Section 4.4's matviews keep this join local)"
                        ),
                        details={
                            **base,
                            "rows": int(motion.rows),
                            "shipped": int(motion.shipped),
                            "source_tables": list(motion.source_tables),
                        },
                    )
                )
        for join in query.joins:
            input_rows = join.left_rows + join.right_rows
            if join.est_rows >= EXPLOSION_MIN_ROWS and join.est_rows > (
                EXPLOSION_FACTOR * max(input_rows, 1.0)
            ):
                findings.append(
                    Finding(
                        code="PKB103",
                        message=(
                            f"{query.name} predicts a cardinality explosion: "
                            f"join {join.detail} is estimated to emit "
                            f"~{int(join.est_rows)} rows from "
                            f"~{int(input_rows)} input rows "
                            f"(over {EXPLOSION_FACTOR:g}x); grounding "
                            f"this program would blow up the factor graph"
                        ),
                        details={
                            **base,
                            "join": join.detail,
                            "left_rows": int(join.left_rows),
                            "right_rows": int(join.right_rows),
                            "est_rows": int(join.est_rows),
                        },
                    )
                )
            if (
                not join.collocated
                and join.key_mcv >= SKEW_MCV_FRACTION
                and input_rows >= SKEW_MIN_ROWS
                and any(m.kind == "redistribute" for m in join.motions)
            ):
                findings.append(
                    Finding(
                        code="PKB104",
                        message=(
                            f"{query.name} redistributes on a skewed join "
                            f"key ({join.detail}): the most common value "
                            f"holds {join.key_mcv:.0%} of the rows, so one "
                            f"segment receives most of the data"
                        ),
                        details={
                            **base,
                            "join": join.detail,
                            "key_mcv": join.key_mcv,
                            "input_rows": int(input_rows),
                        },
                    )
                )
    if include_infos and report.queries:
        env = report.environment
        findings.append(
            Finding(
                code="PKB105",
                message=(
                    f"static plan summary: {len(report.queries)} grounding "
                    f"queries, total estimated "
                    f"{report.total_estimated_seconds * 1e3:.2f}ms on "
                    f"{env['kind']} ({env['num_segments']} segments, "
                    f"matviews {'on' if env['use_matviews'] else 'off'})"
                ),
                details={
                    "queries": len(report.queries),
                    "estimated_seconds": report.total_estimated_seconds,
                    "environment": env,
                },
            )
        )
    return findings
