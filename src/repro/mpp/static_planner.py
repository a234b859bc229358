"""Statistics-driven static planner for the MPP simulator.

The executor (:mod:`repro.mpp.cluster`) places motions from *actual*
intermediate sizes.  This module asks the same placement rules
(:mod:`repro.mpp.placement`) with sizes estimated from catalog
statistics (:mod:`repro.relational.statistics`) **before any row is
touched**: it walks a logical plan, propagates cardinality estimates
through scans/filters/joins under the standard independence assumptions,
and prices each operator and motion with the
:mod:`repro.relational.cost` constants.  Placement is one function
shared with the executor, so on exact statistics the planned tree is the
executed tree; a misestimate can only change which motion a
non-collocated join pays for.

The planner never drives execution.  Its consumers are
:mod:`repro.analyze.plans`, which runs it over each partition's
grounding queries and turns the estimates into PKB101+ findings and
``repro explain`` / ``GET /explain`` output (the paper's Figure 4,
statically), and :mod:`repro.analyze.verify`, which checks the planned
trees with :mod:`repro.mpp.verify`.

Cardinality model (textbook System-R assumptions):

* equality with a constant selects ``1/ndv`` of the rows;
* an equi-join on keys ``k`` produces ``|L|·|R| / max(ndv_L(k), ndv_R(k))``;
* distinct/group-by emit ``min(rows, Π ndv(columns))`` rows;
* column values are independent and uniformly distributed — skew is
  tracked separately via each column's most-common-value fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..relational.cost import (
    QUERY_OVERHEAD_S,
    ROW_BROADCAST_S,
    ROW_BUILD_S,
    ROW_OUTPUT_S,
    ROW_PROBE_S,
    ROW_SCAN_S,
    ROW_SHIP_S,
)
from ..relational.expr import (
    And,
    Col,
    Compare,
    Const,
    Expr,
    IsNull,
    Not,
    Or,
    resolve_column,
)
from ..relational.plan import (
    Aggregate,
    AntiJoin,
    Distinct,
    Filter,
    HashJoin,
    PlanNode,
    Project,
    Scan,
    UnionAll,
    Values,
    walk,
)
from ..relational.statistics import (
    StatisticsCatalog,
    TableDistribution,
    table_stats,
)
from ..relational.types import ExecutionError, ensure
from .distribution import ReplicatedDistribution
from .placement import (
    Input,
    Move,
    dist_after,
    motion_label,
    operator_label,
    place,
    qualified,
    table_dist,
)
from .plannodes import DistDesc, PhysicalNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import MPPDatabase

#: Selectivity of a non-equality comparison (System R's magic 1/3).
DEFAULT_INEQ_SELECTIVITY = 1.0 / 3.0
#: Selectivity of a predicate the estimator cannot decompose.
DEFAULT_SELECTIVITY = 0.5
#: Cardinalities are capped here so products cannot overflow.
MAX_ROWS = 1.0e18


# -- statistics collection ----------------------------------------------------


def collect_mpp_statistics(
    db: "MPPDatabase",
    table_names: Optional[Iterable[str]] = None,
) -> StatisticsCatalog:
    """ANALYZE the cluster's stored tables (rows, ndv, skew, layout)."""
    catalog = StatisticsCatalog(num_segments=db.nseg)
    names = list(table_names) if table_names is not None else list(db.tables)
    for name in names:
        table = db.table(name)
        stats = table_stats(table.schema.column_names, table.all_rows())
        policy = table.policy
        if isinstance(policy, ReplicatedDistribution):
            distribution = TableDistribution.replicated()
        elif policy.key_columns is not None:
            distribution = TableDistribution.hash_on(policy.key_columns)
        else:
            distribution = TableDistribution.random()
        catalog.add(name, stats, distribution)
    return catalog


# -- plan estimates -----------------------------------------------------------


@dataclass
class MotionEstimate:
    """One predicted motion operator and what it would ship."""

    kind: str  # "redistribute" | "broadcast" | "gather"
    #: estimated input rows of the motion
    rows: float
    #: estimated row *copies* crossing the interconnect
    shipped: float
    #: stored tables feeding the moved side
    source_tables: Tuple[str, ...]
    detail: str = ""


@dataclass
class JoinEstimate:
    """Static prediction for one hash join."""

    detail: str
    left_rows: float
    right_rows: float
    est_rows: float
    #: True when no motion was needed (Section 4.4's collocated case)
    collocated: bool
    #: motions inserted to collocate this join
    motions: List[MotionEstimate] = field(default_factory=list)
    #: worst most-common-value fraction among the join key columns
    key_mcv: float = 0.0
    #: stored tables feeding either side
    source_tables: Tuple[str, ...] = ()


@dataclass
class StaticPlan:
    """The static planner's verdict on one logical plan."""

    root: PhysicalNode
    estimated_rows: int
    estimated_seconds: float
    joins: List[JoinEstimate] = field(default_factory=list)
    motions: List[MotionEstimate] = field(default_factory=list)

    def explain(self) -> str:
        return self.root.explain()


@dataclass
class _Est:
    """Estimator state for one plan node's output."""

    columns: List[str]
    rows: float
    dist: DistDesc
    #: per output column: estimated distinct count
    ndv: Dict[str, float]
    #: per output column: estimated NULL fraction
    nulls: Dict[str, float]
    #: per output column: most-common-value fraction
    mcv: Dict[str, float]
    #: stored tables feeding this node
    tables: frozenset
    node: PhysicalNode


class StaticPlanner:
    """Estimate a logical plan's cardinalities, motions, and cost."""

    def __init__(self, catalog: StatisticsCatalog, nseg: Optional[int] = None) -> None:
        self.catalog = catalog
        self.nseg = nseg if nseg is not None else catalog.num_segments
        ensure(self.nseg >= 1, ExecutionError, "need at least one segment")

    def plan(self, plan: PlanNode) -> StaticPlan:
        self._joins: List[JoinEstimate] = []
        self._motions: List[MotionEstimate] = []
        self._bind(plan)
        est = self._est(plan)
        return StaticPlan(
            root=est.node,
            estimated_rows=int(round(est.rows)),
            estimated_seconds=est.node.total_seconds() + QUERY_OVERHEAD_S,
            joins=self._joins,
            motions=self._motions,
        )

    def _bind(self, plan: PlanNode) -> None:
        for node in walk(plan):
            if isinstance(node, Scan):
                stats = self.catalog.stats(node.table_name)
                node.set_table_columns(stats.column_names)

    # -- helpers -------------------------------------------------------------

    def _parallelism(self, dist: DistDesc) -> float:
        """How many ways an operator's work divides: replicated
        intermediates are processed in full on every segment."""
        if dist.kind == "replicated":
            return 1.0
        return float(self.nseg)

    @staticmethod
    def _cap(rows: float) -> float:
        return max(0.0, min(rows, MAX_ROWS))

    def _ndv_of(self, est: _Est, name: str) -> float:
        column = est.columns[resolve_column(name, est.columns)]
        return max(1.0, min(est.ndv.get(column, est.rows), max(est.rows, 1.0)))

    def _mcv_of(self, est: _Est, name: str) -> float:
        column = est.columns[resolve_column(name, est.columns)]
        return est.mcv.get(column, 0.0)

    def _scaled_ndv(self, ndv: Dict[str, float], rows: float) -> Dict[str, float]:
        return {name: min(value, max(rows, 1.0)) for name, value in ndv.items()}

    # -- placement ---------------------------------------------------------------

    def _placed(
        self, plan: PlanNode, *child_plans: PlanNode
    ) -> Tuple[List[_Est], DistDesc, List[MotionEstimate]]:
        """Estimate the children, then move them where the placement
        rules want them given their estimated sizes.  Returns the
        (possibly moved) estimates, the output distribution of ``plan``
        and the motions that collocating it took."""
        children = [self._est(child) for child in child_plans]
        first_motion = len(self._motions)
        placement = place(
            plan,
            [Input(child.columns, child.dist, child.rows) for child in children],
            self.nseg,
        )
        moved = [
            child if move is None else self._move(child, move)
            for child, move in zip(children, placement.moves)
        ]
        return moved, placement.out_dist, self._motions[first_motion:]

    def _move(self, est: _Est, move: Move) -> _Est:
        """Price one motion and wrap the estimate's node in it."""
        dist = dist_after(move)
        if self.nseg == 1:
            # one segment has no interconnect: the "motion" is a no-op
            est.dist = dist
            return est
        off_segment = est.rows * (self.nseg - 1) / self.nseg
        node = PhysicalNode(*motion_label(move))
        shipped = off_segment
        if move[0] == "redistribute":
            node.seconds = off_segment / self.nseg * ROW_SHIP_S
        elif move[0] == "broadcast":
            shipped = est.rows * (self.nseg - 1)
            node.seconds = off_segment * ROW_BROADCAST_S
        else:
            node.seconds = off_segment * ROW_SHIP_S
        node.dist = dist
        node.children.append(est.node)
        node.rows = int(round(est.rows))
        self._motions.append(
            MotionEstimate(
                kind=move[0],
                rows=est.rows,
                shipped=shipped,
                source_tables=tuple(sorted(est.tables)),
                detail=node.detail,
            )
        )
        return replace(est, dist=dist, node=node)

    # -- selectivity --------------------------------------------------------------

    def _selectivity(self, expr: Expr, est: _Est) -> float:
        if isinstance(expr, And):
            sel = 1.0
            for operand in expr.operands:
                sel *= self._selectivity(operand, est)
            return sel
        if isinstance(expr, Or):
            miss = 1.0
            for operand in expr.operands:
                miss *= 1.0 - self._selectivity(operand, est)
            return 1.0 - miss
        if isinstance(expr, Not):
            return 1.0 - self._selectivity(expr.operand, est)
        if isinstance(expr, IsNull):
            if isinstance(expr.operand, Col):
                column = est.columns[
                    resolve_column(expr.operand.name, est.columns)
                ]
                null_fraction = est.nulls.get(column, 0.0)
                return 1.0 - null_fraction if expr.negated else null_fraction
            return DEFAULT_SELECTIVITY
        if isinstance(expr, Compare):
            return self._compare_selectivity(expr, est)
        return DEFAULT_SELECTIVITY

    def _compare_selectivity(self, expr: Compare, est: _Est) -> float:
        left, right = expr.left, expr.right
        if expr.op == "=":
            if isinstance(left, Col) and isinstance(right, Const):
                return 1.0 / self._ndv_of(est, left.name)
            if isinstance(left, Const) and isinstance(right, Col):
                return 1.0 / self._ndv_of(est, right.name)
            if isinstance(left, Col) and isinstance(right, Col):
                return 1.0 / max(
                    self._ndv_of(est, left.name), self._ndv_of(est, right.name)
                )
            return DEFAULT_SELECTIVITY
        if expr.op == "<>":
            inverse = Compare("=", left, right)
            return 1.0 - self._compare_selectivity(inverse, est)
        return DEFAULT_INEQ_SELECTIVITY

    # -- dispatch ----------------------------------------------------------------

    def _est(self, plan: PlanNode) -> _Est:
        est = self._dispatch(plan)
        # declare the derived distribution on the physical node so the
        # plan verifier (repro.mpp.verify) can cross-check it
        est.node.dist = est.dist
        return est

    def _dispatch(self, plan: PlanNode) -> _Est:
        if isinstance(plan, Scan):
            return self._est_scan(plan)
        if isinstance(plan, Values):
            return self._est_values(plan)
        if isinstance(plan, Filter):
            return self._est_filter(plan)
        if isinstance(plan, Project):
            return self._est_project(plan)
        if isinstance(plan, HashJoin):
            return self._est_join(plan)
        if isinstance(plan, AntiJoin):
            return self._est_anti_join(plan)
        if isinstance(plan, Distinct):
            return self._est_distinct(plan)
        if isinstance(plan, Aggregate):
            return self._est_aggregate(plan)
        if isinstance(plan, UnionAll):
            return self._est_union(plan)
        raise ExecutionError(
            f"unsupported plan node {type(plan).__name__} in static planner"
        )

    # -- leaves ------------------------------------------------------------------

    def _est_scan(self, plan: Scan) -> _Est:
        stats = self.catalog.stats(plan.table_name)
        dist = table_dist(self.catalog.distribution(plan.table_name), plan.alias)
        rows = float(stats.rows)
        ndv: Dict[str, float] = {}
        nulls: Dict[str, float] = {}
        mcv: Dict[str, float] = {}
        for name in stats.column_names:
            column = stats.column(name)
            qualified = f"{plan.alias}.{name}"
            ndv[qualified] = float(max(1, column.distinct)) if rows else 0.0
            nulls[qualified] = column.null_fraction
            mcv[qualified] = column.mcv_fraction
        node = PhysicalNode(*operator_label(plan, []))
        node.rows = int(round(rows))
        node.seconds = rows / self._parallelism(dist) * ROW_SCAN_S
        return _Est(
            columns=plan.output_columns,
            rows=rows,
            dist=dist,
            ndv=ndv,
            nulls=nulls,
            mcv=mcv,
            tables=frozenset([plan.table_name]),
            node=node,
        )

    def _est_values(self, plan: Values) -> _Est:
        rows = float(len(plan.rows))
        node = PhysicalNode(*operator_label(plan, []), rows=len(plan.rows))
        return _Est(
            columns=plan.output_columns,
            rows=rows,
            dist=DistDesc.arbitrary(),
            ndv={name: rows for name in plan.output_columns},
            nulls={},
            mcv={},
            tables=frozenset(),
            node=node,
        )

    # -- unary -------------------------------------------------------------------

    def _est_filter(self, plan: Filter) -> _Est:
        child = self._est(plan.child)
        selectivity = min(1.0, max(0.0, self._selectivity(plan.predicate, child)))
        rows = self._cap(child.rows * selectivity)
        ndv = self._scaled_ndv(dict(child.ndv), rows)
        # equality with a constant pins that column to a single value
        for conjunct in (
            plan.predicate.operands
            if isinstance(plan.predicate, And)
            else [plan.predicate]
        ):
            if (
                isinstance(conjunct, Compare)
                and conjunct.op == "="
                and isinstance(conjunct.left, Col)
                and isinstance(conjunct.right, Const)
            ):
                column = child.columns[
                    resolve_column(conjunct.left.name, child.columns)
                ]
                ndv[column] = 1.0
        node = PhysicalNode(*operator_label(plan, [child.columns]))
        node.children.append(child.node)
        parallelism = self._parallelism(child.dist)
        node.seconds = (
            child.rows * ROW_PROBE_S + rows * ROW_OUTPUT_S
        ) / parallelism
        node.rows = int(round(rows))
        return _Est(
            columns=child.columns,
            rows=rows,
            dist=child.dist,
            ndv=ndv,
            nulls=child.nulls,
            mcv=child.mcv,
            tables=child.tables,
            node=node,
        )

    def _est_project(self, plan: Project) -> _Est:
        (child,), dist, _ = self._placed(plan, plan.child)
        ndv: Dict[str, float] = {}
        nulls: Dict[str, float] = {}
        mcv: Dict[str, float] = {}
        for expr, name in plan.outputs:
            if isinstance(expr, Col):
                source = child.columns[resolve_column(expr.name, child.columns)]
                ndv[name] = child.ndv.get(source, child.rows)
                nulls[name] = child.nulls.get(source, 0.0)
                mcv[name] = child.mcv.get(source, 0.0)
            elif isinstance(expr, Const):
                ndv[name] = 1.0
                nulls[name] = 1.0 if expr.value is None else 0.0
                mcv[name] = 1.0
            else:
                ndv[name] = child.rows
        node = PhysicalNode(*operator_label(plan, [child.columns]))
        node.children.append(child.node)
        node.seconds = (
            child.rows * ROW_OUTPUT_S / self._parallelism(child.dist)
        )
        node.rows = int(round(child.rows))
        return _Est(
            columns=plan.output_columns,
            rows=child.rows,
            dist=dist,
            ndv=ndv,
            nulls=nulls,
            mcv=mcv,
            tables=child.tables,
            node=node,
        )

    # -- joins -------------------------------------------------------------------

    def _est_join(self, plan: HashJoin) -> _Est:
        (left, right), out_dist, motions = self._placed(
            plan, plan.left, plan.right
        )
        left_keys = qualified(plan.left_keys, left.columns)
        right_keys = qualified(plan.right_keys, right.columns)
        out_columns = left.columns + right.columns

        # |L ⋈ R| = |L|·|R| / Π max(ndv_L(k), ndv_R(k))
        rows = left.rows * right.rows
        joined_ndv: Dict[str, float] = {}
        key_mcv = 0.0
        for lkey, rkey in zip(left_keys, right_keys):
            ndv_l = self._ndv_of(left, lkey)
            ndv_r = self._ndv_of(right, rkey)
            rows /= max(ndv_l, ndv_r, 1.0)
            joined_ndv[lkey] = joined_ndv[rkey] = min(ndv_l, ndv_r)
            key_mcv = max(
                key_mcv, self._mcv_of(left, lkey), self._mcv_of(right, rkey)
            )
        rows = self._cap(rows)

        ndv = {**left.ndv, **right.ndv, **joined_ndv}
        est = _Est(
            columns=out_columns,
            rows=rows,
            dist=out_dist,
            ndv=self._scaled_ndv(ndv, rows),
            nulls={**left.nulls, **right.nulls},
            mcv={**left.mcv, **right.mcv},
            tables=left.tables | right.tables,
            node=PhysicalNode(*operator_label(plan, [left.columns, right.columns])),
        )
        if plan.residual is not None:
            residual_sel = min(
                1.0, max(0.0, self._selectivity(plan.residual, est))
            )
            rows = self._cap(rows * residual_sel)
            est.rows = rows
            est.ndv = self._scaled_ndv(est.ndv, rows)

        est.node.children.extend([left.node, right.node])
        est.node.rows = int(round(rows))
        est.node.seconds = self._join_seconds(left, right, rows)

        self._joins.append(
            JoinEstimate(
                detail=est.node.detail,
                left_rows=left.rows,
                right_rows=right.rows,
                est_rows=rows,
                collocated=not motions,
                motions=motions,
                key_mcv=key_mcv,
                source_tables=tuple(sorted(left.tables | right.tables)),
            )
        )
        return est

    def _join_seconds(self, left: _Est, right: _Est, out_rows: float) -> float:
        if left.dist.kind == "replicated" and right.dist.kind == "replicated":
            build = min(left.rows, right.rows)
            probe = max(left.rows, right.rows)
            return build * ROW_BUILD_S + probe * ROW_PROBE_S + out_rows * ROW_OUTPUT_S
        left_eff = left.rows / self._parallelism(left.dist)
        right_eff = right.rows / self._parallelism(right.dist)
        build = min(left_eff, right_eff)
        probe = max(left_eff, right_eff)
        out_eff = out_rows / self.nseg
        return build * ROW_BUILD_S + probe * ROW_PROBE_S + out_eff * ROW_OUTPUT_S

    def _est_anti_join(self, plan: AntiJoin) -> _Est:
        (left, right), out_dist, _ = self._placed(plan, plan.left, plan.right)
        left_keys = qualified(plan.left_keys, left.columns)
        right_keys = qualified(plan.right_keys, right.columns)

        # surviving fraction ≈ share of the key domain the right side misses
        distinct_left = 1.0
        distinct_right = 1.0
        for lkey, rkey in zip(left_keys, right_keys):
            distinct_left = min(distinct_left * self._ndv_of(left, lkey), MAX_ROWS)
            distinct_right = min(
                distinct_right * self._ndv_of(right, rkey), MAX_ROWS
            )
        distinct_left = min(distinct_left, max(left.rows, 1.0))
        distinct_right = min(distinct_right, max(right.rows, 1.0))
        matched = min(1.0, distinct_right / max(distinct_left, 1.0))
        rows = self._cap(left.rows * (1.0 - matched))

        node = PhysicalNode(*operator_label(plan, [left.columns, right.columns]))
        node.children.extend([left.node, right.node])
        right_eff = right.rows / self._parallelism(right.dist)
        left_eff = left.rows / self._parallelism(left.dist)
        node.seconds = (
            right_eff * ROW_BUILD_S
            + left_eff * ROW_PROBE_S
            + rows / self.nseg * ROW_OUTPUT_S
        )
        node.rows = int(round(rows))
        return _Est(
            columns=left.columns,
            rows=rows,
            dist=out_dist,
            ndv=self._scaled_ndv(dict(left.ndv), rows),
            nulls=left.nulls,
            mcv=left.mcv,
            tables=left.tables | right.tables,
            node=node,
        )

    # -- distinct / aggregate / union --------------------------------------------

    def _est_distinct(self, plan: Distinct) -> _Est:
        (child,), dist, _ = self._placed(plan, plan.child)
        distinct = 1.0
        for column in child.columns:
            distinct = min(distinct * self._ndv_of(child, column), MAX_ROWS)
        rows = self._cap(min(child.rows, distinct))
        node = PhysicalNode(*operator_label(plan, [child.columns]))
        node.children.append(child.node)
        parallelism = self._parallelism(child.dist)
        node.seconds = (
            child.rows * ROW_PROBE_S + rows * ROW_OUTPUT_S
        ) / parallelism
        node.rows = int(round(rows))
        return _Est(
            columns=child.columns,
            rows=rows,
            dist=dist,
            ndv=self._scaled_ndv(dict(child.ndv), rows),
            nulls=child.nulls,
            mcv=child.mcv,
            tables=child.tables,
            node=node,
        )

    def _est_aggregate(self, plan: Aggregate) -> _Est:
        (child,), out_dist, _ = self._placed(plan, plan.child)

        if plan.group_by:
            groups = 1.0
            for name in plan.group_by:
                groups = min(groups * self._ndv_of(child, name), MAX_ROWS)
            rows = self._cap(min(child.rows, groups))
        else:
            rows = 1.0
        out_columns = plan.output_columns
        ndv: Dict[str, float] = {}
        for name in plan.group_by:
            ndv[name] = min(self._ndv_of(child, name), max(rows, 1.0))
        for _, _, out_name in plan.aggregates:
            ndv[out_name] = rows
        node = PhysicalNode(*operator_label(plan, [child.columns]))
        node.children.append(child.node)
        parallelism = self._parallelism(child.dist) if plan.group_by else 1.0
        node.seconds = (
            child.rows * ROW_PROBE_S + rows * ROW_OUTPUT_S
        ) / parallelism
        node.rows = int(round(rows))
        return _Est(
            columns=out_columns,
            rows=rows,
            dist=out_dist,
            ndv=ndv,
            nulls={},
            mcv={},
            tables=child.tables,
            node=node,
        )

    def _est_union(self, plan: UnionAll) -> _Est:
        children, dist, _ = self._placed(plan, *plan.children)
        out_columns = plan.output_columns
        rows = self._cap(sum(child.rows for child in children))
        ndv: Dict[str, float] = {}
        for pos, name in enumerate(out_columns):
            total = 0.0
            for child in children:
                total += child.ndv.get(child.columns[pos], child.rows)
            ndv[name] = min(total, max(rows, 1.0))
        node = PhysicalNode(*operator_label(plan, [child.columns for child in children]))
        node.children.extend(child.node for child in children)
        # the executor charges rows_output for every concatenated row
        node.seconds = rows * ROW_OUTPUT_S / self._parallelism(dist)
        node.rows = int(round(rows))
        tables: frozenset = frozenset()
        for child in children:
            tables |= child.tables
        return _Est(
            columns=out_columns,
            rows=rows,
            dist=dist,
            ndv=ndv,
            nulls={},
            mcv={},
            tables=tables,
            node=node,
        )
