"""Pass 3: dead and duplicate rule detection.

*Duplicates* (PKB008) are rules that are structurally equivalent under
the Definition-6 canonical renaming — same partition, same relation
tuple, same class tuple.  The relational load silently keeps only the
first of each (Proposition 1 requires M_i duplicate-free), so a
duplicate's weight is dropped on the floor; ``repro.quality``'s
:func:`~repro.quality.rule_cleaning.merge_duplicate_rules` is the
opt-in fix.

*Dead rules* (PKB009) can never fire in any fixpoint iteration: some
body relation has no facts in TΠ and is not the head of any rule that
could itself fire.  Liveness is the usual bottom-up fixpoint — start
from fact-supported relations, repeatedly mark a rule fireable when all
its body relations are live, and its head relation live in turn.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core.clauses import ClassifiedClause
from ..core.model import KnowledgeBase
from .findings import Finding
from .typecheck import SchemaIndex

CanonicalKey = Tuple[int, Tuple[str, ...], Tuple[str, ...]]


def canonical_key(classified: ClassifiedClause) -> CanonicalKey:
    """The identifier tuple that makes two rules the same M_i row
    (weight excluded: same-key rules with different weights are still
    duplicates — only one row survives the load)."""
    return (classified.partition, classified.relations, classified.classes)


def check_duplicates(kb: KnowledgeBase, index: SchemaIndex) -> List[Finding]:
    findings: List[Finding] = []
    first_seen: Dict[CanonicalKey, int] = {}
    for rule_index, classified in index.classified:
        key = canonical_key(classified)
        original = first_seen.setdefault(key, rule_index)
        if original == rule_index:
            continue
        findings.append(
            Finding(
                code="PKB008",
                message=(
                    f"structurally equivalent to rule #{original} "
                    f"({kb.rules[original]}); only one M{classified.partition} "
                    f"row survives the load — consider merging weights "
                    f"(repro.quality.merge_duplicate_rules)"
                ),
                rule=str(kb.rules[rule_index]),
                rule_index=rule_index,
                details={
                    "duplicate_of": original,
                    "partition": classified.partition,
                },
            )
        )
    return findings


def live_relations(kb: KnowledgeBase, index: SchemaIndex) -> Set[str]:
    """Relations that can hold at least one fact across any fixpoint."""
    live = {fact.relation for fact in kb.facts}
    rules: List[Tuple[str, Set[str]]] = []
    for rule_index, _ in index.classified:
        rule = kb.rules[rule_index]
        rules.append(
            (rule.head.relation, {atom.relation for atom in rule.body})
        )
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in live and body <= live:
                live.add(head)
                changed = True
    return live


def check_dead_rules(kb: KnowledgeBase, index: SchemaIndex) -> List[Finding]:
    findings: List[Finding] = []
    live = live_relations(kb, index)
    for rule_index, _ in index.classified:
        rule = kb.rules[rule_index]
        starved = sorted(
            {atom.relation for atom in rule.body if atom.relation not in live}
        )
        if not starved:
            continue
        names = ", ".join(repr(name) for name in starved)
        findings.append(
            Finding(
                code="PKB009",
                message=(
                    f"body relation(s) {names} have no facts in TΠ and no "
                    f"producing rule head — this rule can never fire in any "
                    f"fixpoint iteration"
                ),
                rule=str(rule),
                rule_index=rule_index,
                details={"starved_relations": starved},
            )
        )
    return findings
