"""Componentwise Gibbs: the component index and per-component sampling.

Facts are variables; each ground factor (a TΦ row) connects the facts it
mentions.  Marginals factorise over connected components of that graph,
so each component can be sampled independently — and, crucially for the
delta path (:mod:`repro.delta`), *re*-sampled independently: as long as
a component's member set, factor set, and seed are unchanged, its
marginals are bit-identical no matter what happened elsewhere in the KB.

:class:`ComponentIndex` is a union-find with union by size and path
halving, extended with per-root member and factor-row lists merged
small-to-large, so ``add_factors`` over a delta is near-linear in the
delta size and the touched components' payloads are available without a
full scan of TΦ.

Two ingredients make a component's marginals a function of its content:

1. **Canonical graph construction** — variables are registered in sorted
   id order and clauses added in sorted ``(head, body...)`` order, so the
   chromatic Gibbs sweep (which iterates colors in registration order)
   is a pure function of the component's *set* of rows.
2. **Per-component seeds** — each component derives its RNG seed from
   the base seed and its minimum member id via a splitmix-style mix, so
   sampling order and the fate of other components are irrelevant.

Sampling draws from counter-based streams, a pure function of
``(component seed, sweep, color, var)``, so a batch of components is
sampled in one pass of the numpy block kernel
(:func:`~repro.infer.gibbs.block_marginals`) with the marginals each
would get alone from the scalar kernel
(:meth:`~repro.infer.gibbs.GibbsSampler.run_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..relational.types import Row
from .factor_graph import FactorGraph
from .gibbs import GibbsSampler, block_marginals

_MASK = (1 << 64) - 1

#: ``(sorted member ids, factor rows)`` — one component's content
ComponentSnapshot = Tuple[List[int], List[Row]]


class ComponentIndex:
    """Union-find over fact ids, carrying each component's payload.

    Per canonical root the index keeps the component's member fact ids
    and the TΦ rows whose participants all lie in the component; its
    size and its minimum member id (a stable anchor for per-component
    seeding — unions can only shrink it deterministically) are read off
    the member list.
    """

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._members: Dict[int, List[int]] = {}
        self._factors: Dict[int, List[Row]] = {}

    @classmethod
    def from_factor_rows(cls, rows: Iterable[Row]) -> "ComponentIndex":
        """The index of a whole TΦ; its variables are the ids the rows
        mention, in any of the three positions."""
        index = cls()
        index.add_factors(rows)
        return index

    def __contains__(self, var: int) -> bool:
        return var in self._parent

    def __len__(self) -> int:
        return len(self._members)

    def add_variable(self, var: int) -> None:
        """Register a fact id as its own singleton component (idempotent)."""
        if var in self._parent:
            return
        self._parent[var] = var
        self._members[var] = [var]
        self._factors[var] = []

    def find(self, var: int) -> int:
        root = var
        while self._parent[root] != root:
            # path halving: point every other node at its grandparent
            self._parent[root] = self._parent[self._parent[root]]
            root = self._parent[root]
        return root

    def _union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if len(self._members[ra]) < len(self._members[rb]):
            ra, rb = rb, ra
        # small-to-large: rb's payload folds into ra's
        self._parent[rb] = ra
        self._members[ra].extend(self._members.pop(rb))
        self._factors[ra].extend(self._factors.pop(rb))
        return ra

    def add_factors(self, rows: Iterable[Row]) -> Set[int]:
        """Fold new TΦ rows into the index; return the touched roots.

        Participants absent from the index are registered on the fly
        (singleton evidence facts appear in TΦ only via their unit
        factor).  The returned roots are canonical *after* all unions,
        so they index directly into :meth:`members` / :meth:`factors`.
        """
        dirty: List[int] = []
        for row in rows:
            participants = [var for var in row[:3] if var is not None]
            for var in participants:
                self.add_variable(var)
            root = participants[0]
            for var in participants[1:]:
                root = self._union(root, var)
            self._factors[self.find(root)].append(row)
            dirty.append(root)
        return {self.find(root) for root in dirty}

    def members(self, root: int) -> List[int]:
        """Sorted member fact ids of the component rooted at ``root``."""
        return sorted(self._members[self.find(root)])

    def factors(self, root: int) -> List[Row]:
        return list(self._factors[self.find(root)])

    def anchor(self, root: int) -> int:
        """Minimum member id — the component's deterministic seed anchor."""
        return min(self._members[self.find(root)])

    def roots(self) -> List[int]:
        """All canonical roots, ordered by their anchors (deterministic)."""
        return sorted(self._members, key=lambda root: min(self._members[root]))

    def snapshots(self, roots: Iterable[int]) -> List[ComponentSnapshot]:
        """Copies of the components' payloads, in anchor order — safe to
        sample while later ``add_factors`` calls merge the originals."""
        return [
            (self.members(root), self.factors(root))
            for root in sorted(roots, key=self.anchor)
        ]


def component_seed(base_seed: int, anchor: int) -> int:
    """Mix the run seed with a component's anchor (its min member id).

    splitmix64-style finalizer: decorrelates neighbouring anchors so
    components with ids 17 and 18 do not sample near-identical chains.
    """
    z = (
        (base_seed & _MASK) * 0x9E3779B97F4A7C15
        + (anchor & _MASK) * 0xBF58476D1CE4E5B9
        + 0x94D049BB133111EB
    ) & _MASK
    z ^= z >> 31
    return z


def _clause_sort_key(row: Row) -> Tuple[int, int, int, float]:
    head, body2, body3, weight = row
    return (head, -1 if body2 is None else body2, -1 if body3 is None else body3, weight)


def build_component_graph(member_ids: Iterable[int], rows: Iterable[Row]) -> FactorGraph:
    """Canonical factor graph for one component.

    Registration order fixes the chromatic sweep order, so it must be a
    function of the component's contents alone: members sorted by id,
    clauses sorted by ``(head, body ids, weight)``.
    """
    graph = FactorGraph()
    for var in sorted(member_ids):
        graph.variable(var)
    for row in sorted(rows, key=_clause_sort_key):
        head, body2, body3, weight = row
        body = [var for var in (body2, body3) if var is not None]
        graph.add_clause(head, body, weight)
    return graph


def component_sampler(
    member_ids: Iterable[int], rows: Iterable[Row], seed: int
) -> GibbsSampler:
    """One component's canonical chain, seeded by its anchor."""
    members = sorted(member_ids)
    graph = build_component_graph(members, rows)
    return GibbsSampler(graph, seed=component_seed(seed, members[0]))


@dataclass
class ComponentSample:
    """Marginals of a batch of components."""

    marginals: Dict[int, float]
    components: int
    #: the most colour classes any component of the batch has
    colors: int


def sample_components(
    snapshots: Sequence[ComponentSnapshot], num_sweeps: int, seed: int
) -> ComponentSample:
    """Marginals over a batch of ``(members, rows)`` component snapshots.

    The one sampling call of ``ProbKB.infer``, :func:`componentwise_marginals`
    and the delta path: the whole batch is one pass of the block kernel.
    """
    samplers = [component_sampler(members, rows, seed) for members, rows in snapshots]
    colors = max((sampler.num_colors for sampler in samplers), default=0)
    return ComponentSample(block_marginals(samplers, num_sweeps), len(samplers), colors)


def all_snapshots(rows: Sequence[Row]) -> List[ComponentSnapshot]:
    """Every component of a full TΦ, in anchor order."""
    index = ComponentIndex.from_factor_rows(rows)
    return index.snapshots(index.roots())


def componentwise_marginals(
    rows: Sequence[Row], num_sweeps: int, seed: int
) -> Dict[int, float]:
    """Marginals over a full TΦ, sampled componentwise.

    This is the full-expansion reference the delta path is bit-identical
    to: a delta flush re-samples the touched components with the same
    inputs this function would give them.
    """
    return sample_components(all_snapshots(rows), num_sweeps, seed).marginals
