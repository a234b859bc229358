"""Motion placement: where each operator's inputs must live (Section
4.4 / Figure 4), decided in one place.

A join, anti-join, distinct or aggregate runs segment-locally only when
its inputs are collocated; otherwise a redistribute, broadcast or gather
motion is paid first.  :func:`place` is that rule set as a pure function
of a logical plan node and, per child, the ``(columns, dist, rows)`` of
its output; it also decides which operators compute on segment 0 only.
The two plan walkers consume it, and the EXPLAIN labels of
:func:`operator_label` / :func:`motion_label`, and differ only in where
``rows`` comes from:

* the executor (:mod:`repro.mpp.cluster`) feeds actual intermediate
  sizes and applies the moves to live frames;
* the static planner (:mod:`repro.mpp.static_planner`) feeds cardinality
  estimates and prices the moves.

So the static planner on exact statistics *is* the executor's planner,
by construction.  :mod:`repro.mpp.verify` deliberately imports nothing
from here: it is the independent reference that checks these placements
(PKB209-212).

The module is pure — no clocks, no ``PhysicalNode`` construction, no
``id()`` — and the RC003/RC009 lint rules hold it to that.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..relational.expr import Col, Expr, resolve_column
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
)
from ..relational.statistics import TableDistribution
from ..relational.types import ExecutionError
from .distribution import DistributionPolicy, ReplicatedDistribution
from .plannodes import DistDesc

#: Fallback motion choices for a join where neither side is collocated.
FALLBACK_BROADCAST_LEFT = "broadcast_left"
FALLBACK_BROADCAST_RIGHT = "broadcast_right"
FALLBACK_REDISTRIBUTE_BOTH = "redistribute_both"

#: ``("redistribute", keys)`` | ``("broadcast",)`` | ``("gather",)``
Move = Tuple
BROADCAST: Move = ("broadcast",)
GATHER: Move = ("gather",)


def redistribute(keys: Sequence[str]) -> Move:
    return ("redistribute", tuple(keys))


class Input(NamedTuple):
    """What placement needs to know about one child's output."""

    columns: Sequence[str]
    dist: DistDesc
    #: actual (executor) or estimated (static planner) row count
    rows: float


class Placement(NamedTuple):
    #: one entry per child, applied left child first: the motion that
    #: child's output goes through, or None when it stays in place
    moves: Tuple[Optional[Move], ...]
    #: distribution of the operator's own output
    out_dist: DistDesc
    #: one entry per child: True when, after its move, its rows count
    #: once, on segment 0 (see :func:`place`)
    once: Tuple[bool, ...]


#: ``(moves, out_dist)`` of one operator, before the run-once rule
_Route = Tuple[Tuple[Optional[Move], ...], DistDesc]


def choose_fallback_motion(left_rows: float, right_rows: float, nseg: int) -> str:
    """The cost-based choice when neither join side is collocated:
    broadcast the smaller input, or redistribute both on the join keys.

    This is the *only* data-dependent decision in MPP planning; the
    executor reaches it with actual shard sizes and the static planner
    with estimates, so the two differ in nothing else.
    """
    small_rows = min(left_rows, right_rows)
    redistribute_cost = left_rows + right_rows
    broadcast_cost = small_rows * nseg
    if broadcast_cost < redistribute_cost:
        if left_rows <= right_rows:
            return FALLBACK_BROADCAST_LEFT
        return FALLBACK_BROADCAST_RIGHT
    return FALLBACK_REDISTRIBUTE_BOTH


#: the EXPLAIN kind of each operator whose node carries no detail
_PLAIN_KINDS: Dict[type, str] = {
    Values: "Values", Project: "Project", Distinct: "Distinct", UnionAll: "Append",
}


def operator_label(plan: PlanNode, inputs: Sequence[Sequence[str]]) -> Tuple[str, str]:
    """The EXPLAIN kind and detail of the plan node recording ``plan``
    over inputs with the column lists ``inputs``."""
    if isinstance(plan, Scan):
        return "Seq Scan", f"on {plan.table_name}"
    if isinstance(plan, Filter):
        return "Filter", plan.predicate.to_sql()
    if isinstance(plan, (HashJoin, AntiJoin)):
        keys = zip(qualified(plan.left_keys, inputs[0]), qualified(plan.right_keys, inputs[1]))
        detail = "on " + " AND ".join(f"{lk} = {rk}" for lk, rk in keys)
        return ("Hash Join" if isinstance(plan, HashJoin) else "Hash Anti Join"), detail
    if isinstance(plan, Aggregate):
        return "HashAggregate", f"group by ({', '.join(plan.group_by)})"
    return _PLAIN_KINDS[type(plan)], ""


def motion_label(move: Move) -> Tuple[str, str]:
    """The EXPLAIN kind and detail of the plan node recording ``move``."""
    if move[0] == "redistribute":
        return "Redistribute Motion", f"on ({', '.join(move[1])})"
    if move[0] == "broadcast":
        return "Broadcast Motion", ""
    return "Gather Motion", "to seg0"


def qualified(names: Sequence[str], columns: Sequence[str]) -> List[str]:
    """``names`` as they are spelled in ``columns`` (alias-qualified)."""
    return [columns[resolve_column(name, columns)] for name in names]


def subset_perm(dist: DistDesc, keys: Sequence[str]) -> Optional[Tuple[int, ...]]:
    """If ``dist`` hashes on a subset of ``keys``, the positions (into
    ``keys``) of its hash columns, in hash order; else None."""
    if dist.kind != "hash" or dist.columns is None:
        return None
    key_list = list(keys)
    try:
        return tuple(key_list.index(column) for column in dist.columns)
    except ValueError:
        return None


def table_dist(
    layout: Union[DistributionPolicy, TableDistribution],
    alias: Optional[str] = None,
) -> DistDesc:
    """The :class:`DistDesc` of a stored table, from its cluster policy
    or its catalog layout; a scan passes its alias to qualify the hash
    columns."""
    if isinstance(layout, TableDistribution):
        replicated = layout.kind == "replicated"
        keys = layout.columns if layout.kind == "hash" else None
    else:
        replicated = isinstance(layout, ReplicatedDistribution)
        keys = layout.key_columns
    if replicated:
        return DistDesc.replicated()
    if keys is None:
        return DistDesc.arbitrary()
    if alias is None:
        return DistDesc.hash_on(keys)
    return DistDesc.hash_on(f"{alias}.{column}" for column in keys)


def project_dist(
    outputs: Sequence[Tuple[Expr, str]],
    child_columns: Sequence[str],
    child_dist: DistDesc,
) -> DistDesc:
    """Track a hash distribution through a projection's column renames."""
    if child_dist.kind != "hash":
        return child_dist
    rename: Dict[str, str] = {}
    for expr, name in outputs:
        if isinstance(expr, Col):
            source = child_columns[resolve_column(expr.name, child_columns)]
            rename.setdefault(source, name)
    mapped = []
    for column in child_dist.columns or ():
        if column not in rename:
            return DistDesc.arbitrary()
        mapped.append(rename[column])
    return DistDesc.hash_on(mapped)


def place(plan: PlanNode, inputs: Sequence[Input], nseg: int) -> Placement:
    """Where the inputs of ``plan`` must move before it can run
    segment-locally, how its output is then distributed, and the
    run-once rule: an operator over gathered input, or over full copies
    whose output is one copy, computes on segment 0 only, and a
    replicated ``UnionAll`` child contributes its rows there only."""
    moves, out_dist = _route(plan, inputs, nseg)
    replicated = tuple(
        (child.dist if move is None else dist_after(move)).kind == "replicated"
        for child, move in zip(inputs, moves)
    )
    if isinstance(plan, UnionAll):
        return Placement(moves, out_dist, replicated)
    once = GATHER in moves or (all(replicated) and out_dist.kind != "replicated")
    return Placement(moves, out_dist, (once,) * len(inputs))


def _route(plan: PlanNode, inputs: Sequence[Input], nseg: int) -> _Route:
    if isinstance(plan, HashJoin):
        return _route_join(plan, inputs[0], inputs[1], nseg)
    if isinstance(plan, AntiJoin):
        return _route_anti_join(plan, inputs[0], inputs[1])
    if isinstance(plan, UnionAll):
        # replicated children contribute one copy, so they mix with anything
        dists = {
            DistDesc.arbitrary() if child.dist.kind == "replicated" else child.dist
            for child in inputs
        }
        out_dist = dists.pop() if len(dists) == 1 else DistDesc.arbitrary()
        return (None,) * len(inputs), out_dist
    if isinstance(plan, Values):
        return (), DistDesc.arbitrary()
    if not isinstance(plan, (Filter, Project, Distinct, Aggregate)):
        raise ExecutionError(f"no placement rule for {type(plan).__name__}")
    (child,) = inputs
    if isinstance(plan, Filter):
        return (None,), child.dist
    if isinstance(plan, Project):
        return (None,), project_dist(plan.outputs, child.columns, child.dist)
    if isinstance(plan, Distinct):
        # equal rows must meet on one segment: any hash or a full copy
        # guarantees it, an arbitrary spread does not
        if child.dist.kind != "arbitrary":
            return (None,), child.dist
        return _moved(redistribute(child.columns))
    if not plan.group_by:  # an Aggregate from here on
        return _moved(GATHER)
    out_dist = DistDesc.hash_on(plan.group_by)
    group_keys = qualified(plan.group_by, child.columns)
    if subset_perm(child.dist, group_keys) is not None:
        return (None,), out_dist
    return (redistribute(group_keys),), out_dist


def _moved(move: Move) -> _Route:
    """A unary operator that keeps the distribution its move produces."""
    return (move,), dist_after(move)


def dist_after(move: Move) -> DistDesc:
    """The distribution a motion leaves its rows in."""
    if move[0] == "redistribute":
        return DistDesc.hash_on(move[1])
    if move[0] == "broadcast":
        return DistDesc.replicated()
    return DistDesc.arbitrary()


def _route_join(plan: HashJoin, left: Input, right: Input, nseg: int) -> _Route:
    # replicated inputs join locally against anything
    if left.dist.kind == "replicated" and right.dist.kind == "replicated":
        # every segment computes the full result; one copy is kept
        return (None, None), DistDesc.arbitrary()
    if left.dist.kind == "replicated":
        return (None, None), right.dist
    if right.dist.kind == "replicated":
        return (None, None), left.dist

    left_keys = qualified(plan.left_keys, left.columns)
    right_keys = qualified(plan.right_keys, right.columns)
    # a side hashed on a SUBSET of its join keys is collocatable:
    # equal join keys imply equal subset values, hence same segment
    left_perm = subset_perm(left.dist, left_keys)
    right_perm = subset_perm(right.dist, right_keys)
    if left_perm is not None and left_perm == right_perm:
        return (None, None), left.dist
    if left_perm is not None:
        # move right to hash on the columns corresponding to left's
        keys = [right_keys[i] for i in left_perm]
        return (None, redistribute(keys)), left.dist
    if right_perm is not None:
        keys = [left_keys[i] for i in right_perm]
        return (redistribute(keys), None), right.dist

    # neither collocated: redistribute both vs broadcast the smaller
    choice = choose_fallback_motion(left.rows, right.rows, nseg)
    if choice == FALLBACK_BROADCAST_LEFT:
        return (BROADCAST, None), right.dist
    if choice == FALLBACK_BROADCAST_RIGHT:
        return (None, BROADCAST), left.dist
    return (
        (redistribute(left_keys), redistribute(right_keys)),
        DistDesc.hash_on(left_keys),
    )


def _route_anti_join(plan: AntiJoin, left: Input, right: Input) -> _Route:
    """NOT EXISTS is valid per segment when every right row that could
    match a left row lives on the left row's segment: the right side is
    replicated, or both sides are hashed on the (corresponding) keys."""
    left_move: Optional[Move] = None
    right_move: Optional[Move] = None
    if right.dist.kind != "replicated":
        left_keys = qualified(plan.left_keys, left.columns)
        right_keys = qualified(plan.right_keys, right.columns)
        left_perm = subset_perm(left.dist, left_keys)
        right_perm = subset_perm(right.dist, right_keys)
        if left_perm is not None and left_perm == right_perm:
            pass  # already collocated
        elif right_perm is not None:
            left_move = redistribute([left_keys[i] for i in right_perm])
        elif left_perm is not None:
            right_move = redistribute([right_keys[i] for i in left_perm])
        else:
            left_move = redistribute(left_keys)
            right_move = redistribute(right_keys)
    out_dist = dist_after(left_move) if left_move is not None else left.dist
    if out_dist.kind == "replicated":
        # each copy filtered against the same right rows: keep one
        out_dist = DistDesc.arbitrary()
    return (left_move, right_move), out_dist
