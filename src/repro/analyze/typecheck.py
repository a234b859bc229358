"""Pass 1: rule type-checking against the schema and class hierarchy.

A rule is *ill-typed* when some atom's argument classes can never be
satisfied by any signature of the atom's relation — not the declared
signatures, not a class pair any fact actually carries, and not a class
pair some rule head can produce.  Compatibility goes through the class
hierarchy (Remark 1): a class is compatible with a signature class when
their member sets overlap (sub- and superclasses always do), because
:func:`repro.core.hierarchy.broaden_facts` makes subclass facts feed
superclass-typed rules.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core.clauses import ClassifiedClause, ClauseError, classify_clause
from ..core.model import KnowledgeBase
from .findings import Finding

ClassPair = Tuple[str, str]


class SchemaIndex:
    """Per-relation allowed class pairs and every rule's Definition-6
    classification, precomputed once per analysis."""

    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        #: (rule index, classification) of every rule that maps onto a
        #: partition, in rule order; the others' ClauseError by index
        #: (the safety pass reports those, every other pass skips them)
        self.classified: List[Tuple[int, ClassifiedClause]] = []
        self.clause_errors: Dict[int, ClauseError] = {}
        for rule_index, rule in enumerate(kb.rules):
            try:
                self.classified.append((rule_index, classify_clause(rule)))
            except ClauseError as error:
                self.clause_errors[rule_index] = error
        self.known_relations: Set[str] = set(kb.relations)
        self.known_classes: Set[str] = set(kb.classes)
        self._compatible_cache: Dict[ClassPair, bool] = {}
        #: declared signatures (all of them, not just the first per name)
        self.declared: Dict[str, Set[ClassPair]] = {}
        signatures = getattr(kb, "relation_signatures", None)
        if signatures is None:  # pre-signature KBs: fall back to first-per-name
            for relation in kb.relations.values():
                self.declared.setdefault(relation.name, set()).add(
                    (relation.domain, relation.range)
                )
        else:
            for name, declared in signatures.items():
                self.declared[name] = {(r.domain, r.range) for r in declared}
        #: class pairs actually observed on facts in TΠ
        self.observed: Dict[str, Set[ClassPair]] = {}
        for fact in kb.facts:
            self.observed.setdefault(fact.relation, set()).add(
                (fact.subject_class, fact.object_class)
            )
        #: class pairs producible by some rule head (derived facts carry
        #: the head atom's variable classes)
        self.producible: Dict[str, Set[ClassPair]] = {}
        for rule in kb.rules:
            if len(rule.head.args) != 2:
                continue
            classes = rule.classes
            pair = (
                classes.get(rule.head.args[0]),
                classes.get(rule.head.args[1]),
            )
            if pair[0] is None or pair[1] is None:
                continue
            self.producible.setdefault(rule.head.relation, set()).add(
                (pair[0], pair[1])
            )

    def compatible(self, first: str, second: str) -> bool:
        """Can an entity belong to both classes?  Unknown or empty
        classes are treated permissively — other passes report them."""
        if first == second:
            return True
        key = (first, second) if first < second else (second, first)
        cached = self._compatible_cache.get(key)
        if cached is not None:
            return cached
        members_first = self.kb.classes.get(first)
        members_second = self.kb.classes.get(second)
        if members_first is None or members_second is None:
            result = True
        elif not members_first or not members_second:
            result = True
        else:
            result = not members_first.isdisjoint(members_second)
        self._compatible_cache[key] = result
        return result

    def pair_compatible(self, pair: ClassPair, signature: ClassPair) -> bool:
        return self.compatible(pair[0], signature[0]) and self.compatible(
            pair[1], signature[1]
        )

    def fillable_pairs(self, relation: str) -> Set[ClassPair]:
        """Class pairs a body atom of ``relation`` could match against:
        declared signatures, fact-carried pairs, and rule-head products."""
        return (
            self.declared.get(relation, set())
            | self.observed.get(relation, set())
            | self.producible.get(relation, set())
        )


def check_types(kb: KnowledgeBase, index: SchemaIndex) -> List[Finding]:
    """PKB006: atoms whose argument classes fit no signature at all."""
    findings: List[Finding] = []
    for rule_index, rule in enumerate(kb.rules):
        classes = rule.classes
        for position, atom in enumerate((rule.head, *rule.body)):
            if len(atom.args) != 2:
                continue  # PKB002 (safety pass) covers arity
            if atom.relation not in index.known_relations:
                continue  # PKB001 covers unknown relations
            pair = (classes.get(atom.args[0]), classes.get(atom.args[1]))
            if pair[0] is None or pair[1] is None:
                continue  # PKB004 covers untyped variables
            if pair[0] not in index.known_classes or pair[1] not in index.known_classes:
                continue  # PKB007 covers unknown classes
            if position == 0:
                # the head *produces* facts, so it cannot justify its own
                # typing — check it against declared and observed pairs.
                # A mismatch is only a warning: deriving a novel class
                # pair is legal (TΠ carries per-fact classes), just
                # suspect.
                allowed = index.declared.get(atom.relation, set()) | index.observed.get(
                    atom.relation, set()
                )
                severity = "warning"
            else:
                # a body atom that fits no fillable signature can never
                # match a fact — the rule is statically inert
                allowed = index.fillable_pairs(atom.relation)
                severity = "error"
            if not allowed:
                continue  # nothing declared or observed: nothing to check
            if any(
                index.pair_compatible((pair[0], pair[1]), signature)
                for signature in allowed
            ):
                continue
            role = "head" if position == 0 else f"body atom {position}"
            candidates = ", ".join(
                f"({c1}, {c2})" for c1, c2 in sorted(allowed)
            )
            findings.append(
                Finding(
                    code="PKB006",
                    severity=severity,
                    message=(
                        f"{role} {atom} is typed ({pair[0]}, {pair[1]}) but "
                        f"no signature of {atom.relation!r} is satisfiable "
                        f"by those classes (known: {candidates})"
                    ),
                    rule=str(rule),
                    rule_index=rule_index,
                    details={
                        "relation": atom.relation,
                        "classes": [pair[0], pair[1]],
                        "known_signatures": sorted(allowed),
                    },
                )
            )
    return findings
