"""Static plan analysis of a KB program's grounding queries.

The other analyzer passes look at the *rules*.  This pass looks at the
*queries* those rules will become: it compiles each nonempty partition's
batch grounding queries (Queries 1-i and 2-i of Algorithm 1) into
logical plans — without a backend, without executing anything — and runs
the MPP static planner (:mod:`repro.mpp.static_planner`) over statistics
synthesized straight from the knowledge base.

Because entity/class/relation *names* map bijectively onto the integer
ids the loader would mint, per-column distinct counts and skew computed
over names equal those of the loaded tables, so the estimates here match
what :func:`~repro.mpp.static_planner.collect_mpp_statistics` would
report after loading.

Outputs:

* :func:`estimate_plans` — a :class:`StaticPlanReport` with a
  Figure-4-style EXPLAIN tree, estimated rows/seconds per operator, and
  every predicted motion, for ``repro explain`` and ``GET /explain``.
* :func:`check_plans` — PKB101-105 findings for the analyzer: broadcast
  of a large relation, non-collocated batch join over the facts table,
  predicted cardinality explosion, skewed redistribution key, and an
  informational cost summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.backends import TPI_VIEWS, Backend, tpi_view
from ..core.clauses import PARTITION_INDEXES, ClauseError, classify_clause
from ..core.model import KnowledgeBase
from ..core.relmodel import TP_SCHEMA, mln_schema
from ..core.sqlgen import ground_atoms_plan, ground_factors_plan
from ..mpp.plannodes import PhysicalNode
from ..mpp.static_planner import JoinEstimate, MotionEstimate, StaticPlanner
from ..relational.plan import PlanNode, Scan
from ..relational.statistics import (
    SINGLE_NODE_DIST,
    StatisticsCatalog,
    TableDistribution,
    TableStats,
    table_stats,
)
from ..relational.types import ExecutionError, Row
from .findings import Finding

#: Stored tables that hold the facts (TΠ itself plus its Section-4.4
#: redistributed materialized views).
FACTS_TABLES = frozenset({"TP"} | set(TPI_VIEWS))

PLAN_ENVIRONMENT_KINDS = ("single", "mpp")


@dataclass(frozen=True)
class PlanEnvironment:
    """The deployment the plans are analyzed *for*, plus thresholds.

    Mirrors :class:`~repro.core.config.BackendConfig` without importing
    it (the analyzer must stay usable on a bare KB).  The thresholds are
    deliberately conservative: toy KBs never trip them, the paper-scale
    pathologies (Figure 4's broadcast, a fan-out cross product) do.
    """

    kind: str = "mpp"
    num_segments: int = 8
    use_matviews: bool = True
    #: a broadcast/redistribute moving at least this many rows is "large"
    large_motion_rows: int = 10_000
    #: a join is an explosion when output > factor * (left + right) ...
    explosion_factor: float = 10.0
    #: ... and at least this many rows (tiny KBs can never explode)
    explosion_min_rows: int = 5_000
    #: most-common-value share that counts as a skewed join key
    skew_mcv_fraction: float = 0.5
    #: minimum join input rows before skew matters
    skew_min_rows: int = 1_000

    def __post_init__(self) -> None:
        if self.kind not in PLAN_ENVIRONMENT_KINDS:
            raise ValueError(
                f"unknown plan environment kind {self.kind!r} "
                f"(use one of {PLAN_ENVIRONMENT_KINDS})"
            )
        if self.num_segments < 1:
            raise ValueError(
                f"num_segments must be >= 1, got {self.num_segments}"
            )

    @property
    def effective_segments(self) -> int:
        return self.num_segments if self.kind == "mpp" else 1

    @staticmethod
    def from_backend(backend: Backend) -> "PlanEnvironment":
        """Derive the environment from a live backend."""
        return PlanEnvironment(
            kind="mpp" if backend.is_mpp else "single",
            num_segments=backend.nseg,
            use_matviews=backend.use_matviews,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "num_segments": self.num_segments,
            "use_matviews": self.use_matviews,
        }


class _EnvironmentScans:
    """Compile-time stand-in for a backend.

    ``sqlgen`` only needs ``tpi_scan`` to build the grounding plans;
    this answers exactly as :class:`~repro.core.backends.MPPBackend`
    would after ``create_tpi_views`` — without any tables existing.
    """

    def __init__(self, environment: PlanEnvironment) -> None:
        self._views = environment.kind == "mpp" and environment.use_matviews

    def tpi_scan(self, alias: str, entity_join_columns: Sequence[str]) -> Scan:
        return Scan(tpi_view(entity_join_columns) if self._views else "TP", alias)


def _classified_partitions(kb: KnowledgeBase) -> Dict[int, List[Row]]:
    """MLN identifier rows per partition, deduplicated like the loader
    (Proposition 1 requires M_i duplicate-free).  Rules that do not
    classify are the safety pass's business (PKB001-007) and are skipped."""
    rows: Dict[int, List[Row]] = {i: [] for i in PARTITION_INDEXES}
    seen: Dict[int, Set[Row]] = {i: set() for i in PARTITION_INDEXES}
    for rule in kb.rules:
        try:
            classified = classify_clause(rule)
        except ClauseError:
            continue
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
    kb: KnowledgeBase, environment: Optional[PlanEnvironment] = None
) -> StatisticsCatalog:
    """Synthesize the statistics catalog the loaded KB *would* have.

    Runs before any table exists (the pre-flight gate fires before
    :class:`~repro.core.relmodel.RelationalKB` loads), so the rows are
    rebuilt from the KB with names standing in for dictionary ids.
    """
    env = environment or PlanEnvironment()
    mpp = env.kind == "mpp"
    catalog = StatisticsCatalog(num_segments=env.effective_segments)

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
    if mpp and env.use_matviews:
        # the views mirror TΠ's content under a different distribution
        for view_name, keys in TPI_VIEWS.items():
            catalog.add(view_name, tp_stats, TableDistribution.hash_on(keys))

    # MLN tables — replicated on MPP (dimension-table optimization)
    for partition, rows in _classified_partitions(kb).items():
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

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "QueryPlanEstimate":
        joins = [
            JoinEstimate(
                detail=j["detail"],
                left_rows=float(j["left_rows"]),
                right_rows=float(j["right_rows"]),
                est_rows=float(j["est_rows"]),
                collocated=bool(j["collocated"]),
                key_mcv=float(j.get("key_mcv", 0.0)),
                source_tables=tuple(j.get("source_tables", ())),
            )
            for j in payload.get("joins", ())
        ]
        motions = [
            MotionEstimate(
                kind=m["kind"],
                rows=float(m["rows"]),
                shipped=float(m["shipped"]),
                source_tables=tuple(m.get("source_tables", ())),
                detail=m.get("detail", ""),
            )
            for m in payload.get("motions", ())
        ]
        return QueryPlanEstimate(
            name=str(payload["name"]),
            partition=int(payload["partition"]),
            root=PhysicalNode.from_dict(payload["plan"]),
            estimated_rows=int(payload["estimated_rows"]),
            estimated_seconds=float(payload["estimated_seconds"]),
            joins=joins,
            motions=motions,
        )


@dataclass
class StaticPlanReport:
    """Every grounding query's static plan, for one environment."""

    environment: PlanEnvironment
    queries: List[QueryPlanEstimate] = field(default_factory=list)

    @property
    def total_estimated_seconds(self) -> float:
        return sum(q.estimated_seconds for q in self.queries)

    def query(self, name: str) -> QueryPlanEstimate:
        for q in self.queries:
            if q.name == name:
                return q
        raise KeyError(f"no plan for query {name!r}")

    def render(self) -> str:
        env = self.environment
        lines = [
            f"static plan analysis — backend={env.kind}, "
            f"segments={env.effective_segments}, "
            f"matviews={'on' if env.use_matviews else 'off'}"
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
            "environment": self.environment.to_dict(),
            "queries": [q.to_dict() for q in self.queries],
            "total_estimated_seconds": self.total_estimated_seconds,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "StaticPlanReport":
        env = payload.get("environment", {})
        return StaticPlanReport(
            environment=PlanEnvironment(
                kind=str(env.get("kind", "mpp")),
                num_segments=int(env.get("num_segments", 8)),
                use_matviews=bool(env.get("use_matviews", True)),
            ),
            queries=[
                QueryPlanEstimate.from_dict(q)
                for q in payload.get("queries", ())
            ],
        )


def partition_plans(
    kb: KnowledgeBase, environment: Optional[PlanEnvironment] = None
) -> List[Tuple[str, int, PlanNode]]:
    """Compile Queries 1-i / 2-i for every nonempty partition."""
    env = environment or PlanEnvironment()
    scans = _EnvironmentScans(env)
    plans: List[Tuple[str, int, PlanNode]] = []
    for partition, rows in sorted(_classified_partitions(kb).items()):
        if not rows:
            continue
        plans.append(
            (f"Query 1-{partition}", partition, ground_atoms_plan(partition, scans))
        )
        plans.append(
            (f"Query 2-{partition}", partition, ground_factors_plan(partition, scans))
        )
    return plans


def estimate_plans(
    kb: KnowledgeBase, environment: Optional[PlanEnvironment] = None
) -> StaticPlanReport:
    """Statically plan and price every grounding query of this KB."""
    env = environment or PlanEnvironment()
    catalog = kb_statistics(kb, env)
    planner = StaticPlanner(catalog, env.effective_segments)
    queries: List[QueryPlanEstimate] = []
    for name, partition, plan in partition_plans(kb, env):
        static = planner.plan(plan)
        queries.append(
            QueryPlanEstimate(
                name=name,
                partition=partition,
                root=static.root,
                estimated_rows=static.estimated_rows,
                estimated_seconds=static.estimated_seconds,
                joins=static.joins,
                motions=static.motions,
            )
        )
    return StaticPlanReport(environment=env, queries=queries)


def check_plans(
    kb: KnowledgeBase,
    environment: Optional[PlanEnvironment] = None,
    include_infos: bool = True,
) -> List[Finding]:
    """Turn the static plan estimates into PKB101-105 findings."""
    env = environment or PlanEnvironment()
    try:
        report = estimate_plans(kb, env)
    except ExecutionError:
        # a KB too broken to plan is the other passes' business
        return []
    findings: List[Finding] = []
    for query in report.queries:
        base = {"query": query.name, "partition": query.partition}
        for motion in query.motions:
            tables = ", ".join(motion.source_tables) or "an intermediate"
            if motion.kind == "broadcast" and motion.rows >= env.large_motion_rows:
                findings.append(
                    Finding(
                        code="PKB101",
                        message=(
                            f"{query.name} predicts a broadcast of "
                            f"~{int(motion.rows)} rows from {tables} "
                            f"(threshold {env.large_motion_rows}); consider "
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
                and motion.rows >= env.large_motion_rows
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
            if join.est_rows >= env.explosion_min_rows and join.est_rows > (
                env.explosion_factor * max(input_rows, 1.0)
            ):
                findings.append(
                    Finding(
                        code="PKB103",
                        message=(
                            f"{query.name} predicts a cardinality explosion: "
                            f"join {join.detail} is estimated to emit "
                            f"~{int(join.est_rows)} rows from "
                            f"~{int(input_rows)} input rows "
                            f"(over {env.explosion_factor:g}x); grounding "
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
                and join.key_mcv >= env.skew_mcv_fraction
                and input_rows >= env.skew_min_rows
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
        findings.append(
            Finding(
                code="PKB105",
                message=(
                    f"static plan summary: {len(report.queries)} grounding "
                    f"queries, total estimated "
                    f"{report.total_estimated_seconds * 1e3:.2f}ms on "
                    f"{env.kind} ({env.effective_segments} segments, "
                    f"matviews {'on' if env.use_matviews else 'off'})"
                ),
                details={
                    "queries": len(report.queries),
                    "estimated_seconds": report.total_estimated_seconds,
                    "environment": env.to_dict(),
                },
            )
        )
    return findings
