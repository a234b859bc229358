"""Generation of the batch grounding queries (Figure 3, Queries 1-i/2-i/3).

Each partition M_i yields two join queries:

* ``ground_atoms_plan(i)``   — Query 1-i: derive new facts by joining
  M_i with TΠ on the body atoms' relations, classes, and shared
  entities; *one query applies every rule in the partition*.
* ``ground_factors_plan(i)`` — Query 2-i: join the head in as well and
  emit ground factors (I1, I2, I3, w).

``ground_atoms_plans`` / ``ground_factors_plans`` list a round of either
query over the partitions, which a grounder runs as one statement.
``apply_constraints_key_plan`` builds Query 3's violating-entity
subquery (Section 5.4).  All plans are pure logical plans; they run on
either backend and render to PostgreSQL SQL via
:func:`repro.relational.to_sql` (conformance-tested against sqlite3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..relational import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    PlanNode,
    Project,
    Scan,
    col,
    const,
)
from ..relational.expr import Compare, Expr, eq_const
from .clauses import PARTITION_BODY_PATTERNS


class FactScans(Protocol):
    """What compiling a grounding query needs from a backend: which
    stored copy of TΠ each body atom scans
    (:meth:`~repro.core.backends.Backend.tpi_scan`)."""

    def tpi_scan(self, alias: str, entity_join_columns: Sequence[str]) -> Scan: ...


def id_range(scan: Scan, since: int) -> PlanNode:
    """The rows of a TΠ scan (TΠ or one of its views) with ``I >= since``:
    the facts merged since the id sequence stood at ``since`` and still
    present (§4.2.3 draws every fact id from one ascending sequence) —
    the delta of semi-naive and incremental grounding."""
    return Filter(scan, Compare(">=", col(f"{scan.alias}.I"), const(since)))


#: class column of the MLN tables for each canonical variable
_CLASS_COLUMN = {"x": "C1", "y": "C2", "z": "C3"}
#: entity/class column pairs of a TΠ scan by argument position
_ARG_COLUMNS = (("x", "C1"), ("y", "C2"))


def _body_aliases(partition: int) -> List[str]:
    """TΠ scan aliases for the body atoms, following the paper (T for
    single-atom bodies, T2/T3 for two-atom bodies)."""
    if partition in (1, 2):
        return ["T"]
    return ["T2", "T3"]


def _head_entity_exprs(partition: int, aliases: Sequence[str]) -> Dict[str, str]:
    """Where each head variable's value comes from: var -> 'alias.col'."""
    sources: Dict[str, str] = {}
    for pattern, alias in zip(PARTITION_BODY_PATTERNS[partition], aliases):
        for pos, var in enumerate(pattern):
            if var in ("x", "y") and var not in sources:
                entity_col, _ = _ARG_COLUMNS[pos]
                sources[var] = f"{alias}.{entity_col}"
    return sources


def _shared_z(partition: int, aliases: Sequence[str]) -> Optional[Tuple[str, str]]:
    """The join-variable columns ('T2.x', 'T3.y')-style pair, if any."""
    patterns = PARTITION_BODY_PATTERNS[partition]
    if len(patterns) != 2:
        return None
    columns = []
    for pattern, alias in zip(patterns, aliases):
        pos = pattern.index("z")
        entity_col, _ = _ARG_COLUMNS[pos]
        columns.append(f"{alias}.{entity_col}")
    return (columns[0], columns[1])


def _entity_join_columns(partition: int, alias_index: int) -> List[str]:
    """Which entity columns of the given body scan participate in
    entity-equality joins — drives redistributed-view selection."""
    patterns = PARTITION_BODY_PATTERNS[partition]
    if len(patterns) != 2 or alias_index == 0:
        # first body scan joins M_i on (R, C1, C2) only
        return []
    pos = patterns[alias_index].index("z")
    return [_ARG_COLUMNS[pos][0]]


def _occurrence(scan: Scan, position: int, delta: Optional[int], since: int) -> PlanNode:
    """What TΠ occurrence ``position`` of a grounding join reads in the
    semi-naive variant whose delta position is ``delta`` (``None``: the
    naive query, which reads all of TΠ everywhere).  Occurrences before
    ``delta`` read only the facts older than ``since``, occurrence
    ``delta`` reads the delta (ids from ``since`` on), later ones read
    everything — so the variants of one query are disjoint, and their
    union is every derivation that uses at least one delta fact."""
    if delta is None or position > delta:
        return scan
    if position == delta:
        return id_range(scan, since)
    return Filter(scan, Compare("<", col(f"{scan.alias}.I"), const(since)))


def _mln_body_join(
    partition: int,
    backend: FactScans,
    mln_alias: str = "M",
    delta: Optional[int] = None,
    since: int = 0,
    mln_filter: Optional[Expr] = None,
) -> Tuple[PlanNode, List[str], Dict[str, str]]:
    """Join M_i with the body TΠ scans; returns (plan, aliases, head map).

    ``delta`` and ``since`` pick a semi-naive variant (see
    :func:`_occurrence`).  ``mln_filter`` restricts the MLN table (e.g.
    to one rule — used by weight learning, which needs per-rule ground
    factors).
    """
    aliases = _body_aliases(partition)
    patterns = PARTITION_BODY_PATTERNS[partition]
    mln_table = f"M{partition}"

    plan: PlanNode = Scan(mln_table, mln_alias)
    if mln_filter is not None:
        plan = Filter(plan, mln_filter)
    for index, (pattern, alias) in enumerate(zip(patterns, aliases)):
        scan = backend.tpi_scan(alias, _entity_join_columns(partition, index))
        left_keys = [f"{mln_alias}.R{index + 2}"]
        right_keys = [f"{alias}.R"]
        for pos, var in enumerate(pattern):
            _, class_col = _ARG_COLUMNS[pos]
            left_keys.append(f"{mln_alias}.{_CLASS_COLUMN[var]}")
            right_keys.append(f"{alias}.{class_col}")
        if index == 1:
            shared = _shared_z(partition, aliases)
            assert shared is not None
            left_keys.append(shared[0])
            right_keys.append(shared[1])
        plan = HashJoin(
            plan, _occurrence(scan, index, delta, since), left_keys, right_keys
        )
    return plan, aliases, _head_entity_exprs(partition, aliases)


def ground_atoms_plan(
    partition: int,
    backend: FactScans,
    mln_alias: str = "M",
    delta: Optional[int] = None,
    since: int = 0,
) -> PlanNode:
    """Query 1-i: derive the head facts of every rule in partition i
    (``delta`` and ``since``: one semi-naive variant, see
    :func:`_occurrence`).

    Output columns: (R, x, C1, y, C2) — id assignment and NULL weights
    are handled by :meth:`RelationalKB.stage_candidates` /
    :meth:`RelationalKB.merge_staged`.
    """
    plan, _, head = _mln_body_join(partition, backend, mln_alias, delta, since)
    return Project(
        plan,
        [
            (col(f"{mln_alias}.R1"), "R"),
            (col(head["x"]), "x"),
            (col(f"{mln_alias}.C1"), "C1"),
            (col(head["y"]), "y"),
            (col(f"{mln_alias}.C2"), "C2"),
        ],
    )


def _deltas(partition: int, since: Optional[int], head: bool) -> List[Optional[int]]:
    """A round's delta positions for one partition: ``None`` (the naive
    query) without ``since``, else every body position, then with
    ``head`` the head probe."""
    if since is None:
        return [None]
    return list(range(len(PARTITION_BODY_PATTERNS[partition]) + int(head)))


def ground_atoms_plans(
    partitions: Sequence[int], backend: FactScans, since: Optional[int] = None
) -> List[PlanNode]:
    """One round of Query 1: each partition's Query 1-i, or with
    ``since`` its semi-naive variants, one per body position.  The
    variants are disjoint (:func:`_occurrence`) and each derivation
    they produce uses a fact with an id from ``since`` on."""
    return [
        ground_atoms_plan(partition, backend, delta=delta, since=since or 0)
        for partition in partitions
        for delta in _deltas(partition, since, head=False)
    ]


def ground_factors_plan(
    partition: int,
    backend: FactScans,
    mln_alias: str = "M",
    mln_filter: Optional[Expr] = None,
    delta: Optional[int] = None,
    since: int = 0,
) -> PlanNode:
    """Query 2-i: emit ground factors (I1, I2, I3, w) for partition i.

    Joins the rule head back against TΠ to find the head fact's id.
    Per Proposition 1 the output is duplicate-free, so factors merge
    into TΦ with bag union.  ``delta`` and ``since`` pick one
    semi-naive variant (:func:`_occurrence`); the head probe is the
    position after the last body atom.
    """
    plan, aliases, head = _mln_body_join(
        partition, backend, mln_alias, delta, since, mln_filter
    )
    head_scan = backend.tpi_scan("T1", ["x", "y"])
    left_keys = [
        f"{mln_alias}.R1",
        f"{mln_alias}.C1",
        f"{mln_alias}.C2",
        head["x"],
        head["y"],
    ]
    right_keys = ["T1.R", "T1.C1", "T1.C2", "T1.x", "T1.y"]
    plan = HashJoin(
        plan,
        _occurrence(head_scan, len(aliases), delta, since),
        left_keys,
        right_keys,
    )

    outputs = [(col("T1.I"), "I1")]
    body_ids: List[Tuple[Expr, str]] = [
        (col(f"{alias}.I"), f"I{slot + 2}") for slot, alias in enumerate(aliases)
    ]
    outputs.extend(body_ids)
    if len(aliases) == 1:
        outputs.append((const(None), "I3"))
    outputs.append((col(f"{mln_alias}.w"), "w"))
    return Project(plan, outputs)


def ground_factors_plans(
    partitions: Sequence[int], backend: FactScans, since: Optional[int] = None
) -> List[PlanNode]:
    """Query 2: each partition's Query 2-i, then the singleton factors.
    With ``since``, only the new factors: each partition's variants (the
    body positions, then the head probe), then the new facts'
    singletons.  TΠ and the M_i only grow on that path, so a factor is
    new iff one of its facts is; the variants are disjoint and each is
    duplicate-free (Proposition 1), so the bag union of the list has
    every (new) factor exactly once."""
    plans = [
        ground_factors_plan(partition, backend, delta=delta, since=since or 0)
        for partition in partitions
        for delta in _deltas(partition, since, head=True)
    ]
    plans.append(singleton_factors_plan(backend, since))
    return plans


def singleton_factors_plan(
    backend: FactScans, since: Optional[int] = None
) -> PlanNode:
    """groundFactors(TΠ): the uncertain extracted facts (w NOT NULL)
    become singleton factors (I, NULL, NULL, w).  ``since`` lets the
    incremental path derive only the singletons of the facts with ids
    from there on."""
    from ..relational.expr import IsNull

    scan = Scan("TP", "T")
    facts = scan if since is None else id_range(scan, since)
    filtered = Filter(facts, IsNull(col("T.w"), negated=True))
    return Project(
        filtered,
        [
            (col("T.I"), "I1"),
            (const(None), "I2"),
            (const(None), "I3"),
            (col("T.w"), "w"),
        ],
    )


#: per functionality type: the group's entity column, its class column,
#: and Query 3's grouping (R, entity, class, other class)
_VIOLATION_GROUPS = {
    1: ("T.x", "T.C1", ("T.R", "T.x", "T.C1", "T.C2")),
    2: ("T.y", "T.C2", ("T.R", "T.y", "T.C2", "T.C1")),
}


def violating_groups_plan(functionality_type: int) -> PlanNode:
    """Query 3's HAVING aggregate over TΠ ⋈ FC: one row
    (R, entity, class, other class, n, mindeg) per group whose join-row
    count n exceeds the smallest functionality degree δ among the
    relation's constraints of this type (``count(*) > min(FC.deg)``)."""
    if functionality_type not in _VIOLATION_GROUPS:
        raise ValueError(f"functionality type must be 1 or 2, got {functionality_type}")
    _, _, group_by = _VIOLATION_GROUPS[functionality_type]
    joined = HashJoin(
        Scan("TP", "T"),
        Filter(Scan("FC", "FC"), eq_const("FC.arg", functionality_type)),
        ["T.R"],
        ["FC.R"],
    )
    return Aggregate(
        joined,
        group_by=list(group_by),
        aggregates=[("count", None, "n"), ("min", "FC.deg", "mindeg")],
        having=Compare(">", col("n"), col("mindeg")),
    )


def apply_constraints_key_plan(functionality_type: int) -> PlanNode:
    """Query 3's subquery: entities violating functional constraints.

    For Type I the result is the violating (x, C1) pairs — subjects
    associated with more than δ objects under a functional relation;
    Type II is the mirror image on (y, C2).  It projects
    :func:`violating_groups_plan` onto the groups' keys.
    """
    aggregated = violating_groups_plan(functionality_type)
    entity_col, class_col, _ = _VIOLATION_GROUPS[functionality_type]
    projected = Project(
        aggregated, [(col(entity_col), "x"), (col(class_col), "C1")]
    )
    return Distinct(projected)


#: columns of TΠ deleted against for each functionality type
CONSTRAINT_DELETE_COLUMNS = {1: ("x", "C1"), 2: ("y", "C2")}
