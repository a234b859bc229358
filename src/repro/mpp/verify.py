"""PlanCheck, physical layer: distribution soundness for MPP plans.

A :class:`~repro.mpp.plannodes.PhysicalNode` tree records where every
operator ran and which motions moved rows between segments.  A join
whose inputs are not collocated on the join keys silently drops matches
that live on different segments — a plausible but wrong factor table,
not a crash.  This module re-derives the distribution of every
operator's output bottom-up over the ``DistDesc`` lattice

    singleton  <  hashed-on-keys  <  arbitrary
                  replicated      <  arbitrary

("singleton" is the verifier's name for all-rows-on-one-segment, the
state after a Gather Motion; the planners conservatively *declare* it
as ``arbitrary``, which the verifier accepts as a sound weakening) and
checks, at every node:

* ``PKB209`` — join/anti-join inputs are collocated, replicated, or
  singleton; otherwise a motion is missing;
* ``PKB210`` — a motion whose input already has the target
  distribution is redundant (warning);
* ``PKB211`` — the receiver's distribution requirement holds
  (Distinct input not arbitrary, grouped HashAggregate hashed within
  its group keys, global aggregates gathered first);
* ``PKB212`` — the node itself is malformed: unknown kind, wrong child
  count, unparsable detail, or a declared ``dist`` inconsistent with
  the derivation (for motions, with the motion's own semantics).

All distribution checks are skipped when ``num_segments <= 1``: a
single segment holds everything, so every plan is trivially sound.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..findings import ERROR, WARNING, code_entry, register_codes
from ..relational.verify import PlanFinding, VerificationReport
from .plannodes import DistDesc, PhysicalNode

__all__ = ["PHYSICAL_CODES", "verify_physical_plan"]

#: code -> (default severity, one-line title); continues LOGICAL_CODES
#: from ``repro.relational.verify`` and is append-only like it.
PHYSICAL_CODES: Dict[str, Tuple[str, str]] = register_codes({
    "PKB209": (ERROR, "join inputs are neither collocated on the join "
                      "keys, replicated, nor singleton"),
    "PKB210": (WARNING, "redundant motion: the input already has the "
                        "target distribution"),
    "PKB211": (ERROR, "receiver distribution requirement violated"),
    "PKB212": (ERROR, "malformed physical node or declared distribution "
                      "inconsistent with the derivation"),
})

_SINGLETON = DistDesc("singleton")

#: expected child count per node kind; None = one-or-more
_CHILD_COUNTS: Dict[str, Optional[int]] = {
    "Seq Scan": 0,
    "Values": 0,
    "Filter": 1,
    "Project": 1,
    "Distinct": 1,
    "HashAggregate": 1,
    "Redistribute Motion": 1,
    "Broadcast Motion": 1,
    "Gather Motion": 1,
    "Hash Join": 2,
    "Hash Anti Join": 2,
    "Append": None,
}


def _suffix(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _perm(dist: Optional[DistDesc], keys: Sequence[str]) -> Optional[Tuple[int, ...]]:
    """Positions (into ``keys``) of a hash distribution's columns.

    Exact names first; falls back to unqualified-suffix matching so
    table-level distributions (unqualified) line up with alias-qualified
    join keys.  None when the side is not hashed within ``keys``.
    """
    if dist is None or dist.kind != "hash" or dist.columns is None:
        return None
    key_list = list(keys)
    try:
        return tuple(key_list.index(column) for column in dist.columns)
    except ValueError:
        pass
    suffixes = [_suffix(key) for key in key_list]
    positions = []
    for column in dist.columns:
        suffix = _suffix(column)
        if suffixes.count(suffix) != 1:
            return None
        positions.append(suffixes.index(suffix))
    return tuple(positions)


def _same_dist(a: DistDesc, b: DistDesc) -> bool:
    """Equality up to column qualification (suffix-compared)."""
    if a.kind != b.kind:
        return False
    if a.columns is None or b.columns is None:
        return a.columns == b.columns
    if len(a.columns) != len(b.columns):
        return False
    return all(
        x == y or _suffix(x) == _suffix(y)
        for x, y in zip(a.columns, b.columns)
    )


def _describe(dist: Optional[DistDesc]) -> str:
    if dist is None:
        return "unknown"
    if dist.kind == "hash":
        return f"hash({', '.join(dist.columns or ())})"
    return dist.kind


class _PhysicalChecker:
    def __init__(
        self,
        num_segments: int,
        table_dists: Optional[Mapping[str, DistDesc]],
    ) -> None:
        self.nseg = num_segments
        self.table_dists = table_dists or {}
        self.findings: List[PlanFinding] = []

    def emit(self, code: str, path: str, message: str, **details: object) -> None:
        self.findings.append(
            PlanFinding(
                code=code,
                path=path,
                message=message,
                severity=code_entry(code)[0],
                details=details,
            )
        )

    # -- entry ---------------------------------------------------------------

    def check(self, node: PhysicalNode, path: str) -> Optional[DistDesc]:
        """Derive ``node``'s output distribution; None when unknowable."""
        expected = _CHILD_COUNTS.get(node.kind)
        if node.kind not in _CHILD_COUNTS:
            self.emit(
                "PKB212",
                path,
                f"unknown physical operator kind {node.kind!r}",
                kind=node.kind,
            )
            for index, child in enumerate(node.children):
                self.check(child, f"{path}.{index}")
            return None
        if (expected is None and not node.children) or (
            expected is not None and len(node.children) != expected
        ):
            self.emit(
                "PKB212",
                path,
                f"{node.kind}: has {len(node.children)} children, "
                f"expected {'>=1' if expected is None else expected}",
                kind=node.kind,
                children=len(node.children),
            )
            for index, child in enumerate(node.children):
                self.check(child, f"{path}.{index}")
            return None

        children = [
            self.check(child, f"{path}.{index}")
            for index, child in enumerate(node.children)
        ]
        derived = self._derive(node, path, children)
        if self.nseg > 1:
            derived = self._reconcile(node, path, derived)
        return derived

    def _reconcile(
        self, node: PhysicalNode, path: str, derived: Optional[DistDesc]
    ) -> Optional[DistDesc]:
        """Check the planner-declared dist against the derivation.

        A declared ``arbitrary`` is accepted as a sound weakening of any
        derivation (the planners declare gathered/inline results that
        way) — except on Redistribute/Broadcast Motions, whose output
        distribution IS their semantics.  The derivation wins for
        downstream checks either way.
        """
        declared = node.dist
        if declared is None or derived is None:
            return derived
        strict = node.kind in ("Redistribute Motion", "Broadcast Motion")
        if _same_dist(declared, derived):
            return derived
        if not strict and declared.kind == "arbitrary":
            return derived
        self.emit(
            "PKB212",
            path,
            f"{node.kind}: declares {_describe(declared)} but the "
            f"derivation gives {_describe(derived)}",
            kind=node.kind,
            declared=_describe(declared),
            derived=_describe(derived),
        )
        return derived

    # -- derivation per kind -------------------------------------------------

    def _derive(
        self,
        node: PhysicalNode,
        path: str,
        children: List[Optional[DistDesc]],
    ) -> Optional[DistDesc]:
        kind = node.kind
        if kind == "Seq Scan":
            return self._derive_scan(node)
        if kind == "Values":
            return _SINGLETON
        if kind in ("Filter", "Distinct"):
            if kind == "Distinct" and self.nseg > 1:
                if children[0] is not None and children[0].kind == "arbitrary":
                    self.emit(
                        "PKB211",
                        path,
                        "Distinct: input is distributed arbitrarily — "
                        "duplicates of a row may live on different "
                        "segments; redistribute on the row columns first",
                        kind=kind,
                    )
            return children[0]
        if kind == "Project":
            # renames can remap hash columns; the planner's declaration
            # is the only static source of truth for them
            if node.dist is not None:
                return node.dist
            child = children[0]
            if child is not None and child.kind == "hash":
                return None
            return child
        if kind == "Hash Join":
            return self._derive_join(node, path, children, anti=False)
        if kind == "Hash Anti Join":
            return self._derive_join(node, path, children, anti=True)
        if kind == "HashAggregate":
            return self._derive_aggregate(node, path, children[0])
        if kind == "Append":
            return self._derive_append(children)
        if kind == "Redistribute Motion":
            return self._derive_redistribute(node, path, children[0])
        if kind == "Broadcast Motion":
            if self.nseg > 1 and children[0] is not None:
                if children[0].kind == "replicated":
                    self.emit(
                        "PKB210",
                        path,
                        "Broadcast Motion: input is already replicated",
                        kind=kind,
                    )
            return DistDesc.replicated()
        if kind == "Gather Motion":
            # 'to seg0' gathers within the cluster; an empty detail is
            # the master gather emitted by query(), which always moves
            # rows off the segments and is never redundant
            if (
                self.nseg > 1
                and node.detail == "to seg0"
                and children[0] is not None
                and children[0].kind == "singleton"
            ):
                self.emit(
                    "PKB210",
                    path,
                    "Gather Motion: input already lives on a single segment",
                    kind=kind,
                )
            return _SINGLETON
        raise AssertionError(f"unhandled kind {kind!r}")  # pragma: no cover

    def _derive_scan(self, node: PhysicalNode) -> Optional[DistDesc]:
        if node.dist is not None:
            return node.dist
        if node.detail.startswith("on "):
            table = node.detail[3:].strip()
            return self.table_dists.get(table)
        return None

    def _parse_join_keys(
        self, node: PhysicalNode, path: str
    ) -> Optional[Tuple[List[str], List[str]]]:
        detail = node.detail
        if not detail.startswith("on "):
            self.emit(
                "PKB212",
                path,
                f"{node.kind}: unparsable join detail {detail!r} "
                "(expected 'on L = R AND ...')",
                kind=node.kind,
                detail=detail,
            )
            return None
        left_keys, right_keys = [], []
        for clause in detail[3:].split(" AND "):
            sides = clause.split(" = ")
            if len(sides) != 2 or not sides[0].strip() or not sides[1].strip():
                self.emit(
                    "PKB212",
                    path,
                    f"{node.kind}: unparsable join clause {clause!r}",
                    kind=node.kind,
                    detail=detail,
                )
                return None
            left_keys.append(sides[0].strip())
            right_keys.append(sides[1].strip())
        return left_keys, right_keys

    def _derive_join(
        self,
        node: PhysicalNode,
        path: str,
        children: List[Optional[DistDesc]],
        anti: bool,
    ) -> Optional[DistDesc]:
        keys = self._parse_join_keys(node, path)
        left, right = children
        if keys is None or left is None or right is None:
            return node.dist
        left_keys, right_keys = keys
        if self.nseg <= 1:
            return left

        left_kind, right_kind = left.kind, right.kind
        # replicated inputs join locally against anything — except the
        # preserved side of an anti-join, where a replicated left would
        # test each copy against only one segment's worth of right rows
        if right_kind == "replicated":
            if left_kind == "replicated":
                return DistDesc.arbitrary()
            return left
        if not anti and left_kind == "replicated":
            return right
        if left_kind == "singleton" and right_kind == "singleton":
            return _SINGLETON
        if not anti and left_kind == "singleton" and right_kind == "replicated":
            return _SINGLETON
        left_perm = _perm(left, left_keys)
        right_perm = _perm(right, right_keys)
        if left_perm is not None and left_perm == right_perm:
            # collocated: the output's layout is equally described by
            # either side's hash columns (equal join keys, same
            # segments) — keep whichever spelling the planner declared
            declared = node.dist
            if declared is not None and (
                _same_dist(declared, left) or _same_dist(declared, right)
            ):
                return declared
            return left
        self.emit(
            "PKB209",
            path,
            f"{node.kind} {node.detail}: inputs are {_describe(left)} and "
            f"{_describe(right)} — neither collocated on the join keys, "
            "replicated, nor singleton; a motion is missing",
            kind=node.kind,
            left=_describe(left),
            right=_describe(right),
            left_keys=left_keys,
            right_keys=right_keys,
        )
        return node.dist

    def _parse_group_keys(
        self, node: PhysicalNode, path: str
    ) -> Optional[List[str]]:
        detail = node.detail
        if (
            not detail.startswith("group by (")
            or not detail.endswith(")")
        ):
            self.emit(
                "PKB212",
                path,
                f"HashAggregate: unparsable detail {detail!r} "
                "(expected 'group by (...)')",
                kind=node.kind,
                detail=detail,
            )
            return None
        inner = detail[len("group by ("):-1].strip()
        if not inner:
            return []
        return [part.strip() for part in inner.split(",")]

    def _derive_aggregate(
        self, node: PhysicalNode, path: str, child: Optional[DistDesc]
    ) -> Optional[DistDesc]:
        group = self._parse_group_keys(node, path)
        if group is None:
            return node.dist
        if not group:
            # global aggregate: one row, computed where all rows are
            if self.nseg > 1 and child is not None and child.kind != "singleton":
                self.emit(
                    "PKB211",
                    path,
                    f"HashAggregate (global): input is {_describe(child)} "
                    "but a global aggregate needs all rows on one "
                    "segment — gather first",
                    kind=node.kind,
                    input=_describe(child),
                )
            return _SINGLETON
        if self.nseg > 1 and child is not None and child.kind != "singleton":
            suffixes = {_suffix(key) for key in group} | set(group)
            grouped_ok = (
                child.kind == "hash"
                and child.columns is not None
                and all(
                    column in suffixes or _suffix(column) in suffixes
                    for column in child.columns
                )
            )
            if not grouped_ok:
                self.emit(
                    "PKB211",
                    path,
                    f"HashAggregate {node.detail}: input is "
                    f"{_describe(child)} but rows of one group must share "
                    "a segment — hash within the group keys",
                    kind=node.kind,
                    input=_describe(child),
                    group_by=group,
                )
        return DistDesc.hash_on(group)

    def _derive_append(
        self, children: List[Optional[DistDesc]]
    ) -> Optional[DistDesc]:
        if any(child is None for child in children):
            return None
        dists = set()
        for child in children:
            assert child is not None
            if child.kind == "replicated":
                dists.add(DistDesc.arbitrary())
            else:
                dists.add(child)
        return dists.pop() if len(dists) == 1 else DistDesc.arbitrary()

    def _derive_redistribute(
        self, node: PhysicalNode, path: str, child: Optional[DistDesc]
    ) -> Optional[DistDesc]:
        detail = node.detail
        if not detail.startswith("on (") or not detail.endswith(")"):
            self.emit(
                "PKB212",
                path,
                f"Redistribute Motion: unparsable detail {detail!r} "
                "(expected 'on (col, ...)')",
                kind=node.kind,
                detail=detail,
            )
            return node.dist
        keys = [
            part.strip()
            for part in detail[len("on ("):-1].split(",")
            if part.strip()
        ]
        target = DistDesc.hash_on(keys)
        if self.nseg > 1 and child is not None and _same_dist(child, target):
            self.emit(
                "PKB210",
                path,
                f"Redistribute Motion {detail}: input is already "
                f"{_describe(child)}",
                kind=node.kind,
                keys=keys,
            )
        return target


def verify_physical_plan(
    plan: PhysicalNode,
    num_segments: int,
    table_dists: Optional[Mapping[str, DistDesc]] = None,
    name: str = "physical plan",
) -> VerificationReport:
    """Statically verify an MPP physical plan tree.

    ``table_dists`` optionally maps a stored table's name to its
    :class:`DistDesc` (unqualified columns are fine — join keys are
    suffix-matched), used for scans the planner did not annotate.
    Distribution checks need ``num_segments > 1``; structural checks
    (operator kinds, child counts, detail syntax) always run.  The plan
    is never mutated.
    """
    checker = _PhysicalChecker(num_segments, table_dists)
    checker.check(plan, "root")
    return VerificationReport(plan_name=name, findings=tuple(checker.findings))
