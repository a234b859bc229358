"""Pass 5: relation-level dependency-graph analysis.

Builds the digraph with an edge ``body relation → head relation`` per
classifiable rule and reports, before any join runs:

* PKB013 (info) — each non-trivial strongly connected component: the
  rule set is recursive through these relations, so naive grounding
  iterates until the anti-join dries up rather than a fixed depth;
* PKB014 (info) — a static upper bound on the fixpoint depth (longest
  derivation chain through the condensation DAG; ``None`` when the
  graph is cyclic) and on the grounding size (how large TΠ could ever
  get given the class extents of every reachable signature).

The bounds are conservative, cheap (linear in rules + relations), and
exactly what an operator wants to see before paying for a grounding run
over a 30k-rule extracted program.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.model import KnowledgeBase
from .findings import Finding
from .rules import live_relations
from .typecheck import SchemaIndex

Edge = Tuple[str, str]


def dependency_edges(kb: KnowledgeBase, index: SchemaIndex) -> List[Edge]:
    """Distinct (body relation, head relation) edges, in rule order."""
    edges: List[Edge] = []
    seen: Set[Edge] = set()
    for rule_index, _ in index.classified:
        rule = kb.rules[rule_index]
        for atom in rule.body:
            edge = (atom.relation, rule.head.relation)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges


def strongly_connected_components(
    nodes: Sequence[str], edges: Sequence[Edge]
) -> List[List[str]]:
    """Iterative Tarjan SCC (rule sets reach 30k+; no recursion)."""
    outgoing: Dict[str, List[str]] = {node: [] for node in nodes}
    for source, target in edges:
        outgoing.setdefault(source, []).append(target)
        outgoing.setdefault(target, [])

    index_of: Dict[str, int] = {}
    low_link: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = 0

    for root in outgoing:
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_position = work[-1]
            if child_position == 0:
                index_of[node] = low_link[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = outgoing[node]
            while child_position < len(children):
                child = children[child_position]
                child_position += 1
                if child not in index_of:
                    work[-1] = (node, child_position)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low_link[node] = min(low_link[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if low_link[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low_link[parent] = min(low_link[parent], low_link[node])
    return components


def fixpoint_depth_bound(edges: Sequence[Edge]) -> Optional[int]:
    """Iterations after which naive grounding *must* have converged, or
    ``None`` when the rule set is recursive (no static bound)."""
    nodes = sorted({n for edge in edges for n in edge})
    components = strongly_connected_components(nodes, edges)
    component_of = {
        node: position
        for position, component in enumerate(components)
        for node in component
    }
    self_loops = {source for source, target in edges if source == target}
    for component in components:
        if len(component) > 1 or component[0] in self_loops:
            return None
    # Tarjan emits components in reverse topological order, so a single
    # left-to-right sweep over the reversed list is a topological DP.
    depth: Dict[int, int] = {}
    order = list(reversed(range(len(components))))
    incoming: Dict[int, List[int]] = {i: [] for i in range(len(components))}
    for source, target in edges:
        incoming[component_of[target]].append(component_of[source])
    for position in order:
        depth[position] = max(
            (depth[p] + 1 for p in incoming[position]), default=0
        )
    return max(depth.values(), default=0)


def grounding_size_bound(kb: KnowledgeBase, index: SchemaIndex) -> int:
    """An upper bound on |TΠ| after any number of iterations: for every
    relation signature that could ever hold facts, the full cross
    product of its class extents."""
    live = live_relations(kb, index)
    bound = 0
    counted: Set[Tuple[str, str, str]] = set()
    for relation in sorted(live):
        for domain, range_ in sorted(index.fillable_pairs(relation)):
            signature = (relation, domain, range_)
            if signature in counted:
                continue
            counted.add(signature)
            bound += len(kb.classes.get(domain, ())) * len(
                kb.classes.get(range_, ())
            )
    # facts whose signatures fall outside the fillable set still exist
    uncovered = sum(
        1
        for fact in kb.facts
        if (fact.relation, fact.subject_class, fact.object_class) not in counted
    )
    return bound + uncovered


def check_dependencies(kb: KnowledgeBase, index: SchemaIndex) -> List[Finding]:
    findings: List[Finding] = []
    edges = dependency_edges(kb, index)
    nodes = sorted({n for edge in edges for n in edge})
    self_loops = {source for source, target in edges if source == target}
    recursive = False
    for component in strongly_connected_components(nodes, edges):
        if len(component) > 1 or component[0] in self_loops:
            recursive = True
            cycle = " → ".join(component + [component[0]])
            findings.append(
                Finding(
                    code="PKB013",
                    message=(
                        f"recursive rule dependency cycle: {cycle}; naive "
                        f"grounding iterates until the anti-join guard "
                        f"dries up (no static depth bound)"
                    ),
                    details={"cycle": component},
                )
            )
    depth = fixpoint_depth_bound(edges)
    size = grounding_size_bound(kb, index)
    if depth is None:
        depth_text = "unbounded (recursive rule set)"
    else:
        depth_text = f"{depth} iteration(s)"
    findings.append(
        Finding(
            code="PKB014",
            message=(
                f"static bounds: fixpoint depth ≤ {depth_text}; "
                f"|TΠ| can never exceed {size} facts"
            ),
            details={
                "fixpoint_depth_bound": depth,
                "grounding_size_bound": size,
                "recursive": recursive,
                "dependency_edges": len(edges),
                "relations_in_rules": len(nodes),
            },
        )
    )
    return findings
