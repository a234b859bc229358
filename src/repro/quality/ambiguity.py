"""Ambiguity detection and violation auditing (Sections 5.2, 6.2.2).

Functional-constraint violations are detected by Query 3's subquery;
this module additionally *categorizes* the violations by error source,
reproducing Figure 7(b)'s breakdown:

    ambiguities (detected) / ambiguous join keys / incorrect rules /
    incorrect extractions / general types / synonyms

The paper's authors hand-categorized 100 sampled violations; here the
generator's ground truth plays that role, with derivations recovered
from the lineage in TΦ.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core import Fact, ProbKB, TYPE_I, TYPE_II
from ..core.lineage import LineageIndex
from ..core.sqlgen import violating_groups_plan
from ..relational import Scan
from ..datasets.reverb_sherlock import GeneratedKB

AMBIGUOUS_ENTITY = "ambiguity_detected"
AMBIGUOUS_JOIN_KEY = "ambiguous_join_key"
INCORRECT_RULE = "incorrect_rule"
INCORRECT_EXTRACTION = "incorrect_extraction"
GENERAL_TYPES = "general_types"
SYNONYMS = "synonyms"
OTHER = "other"

CATEGORY_LABELS = {
    AMBIGUOUS_ENTITY: "Ambiguities (detected)",
    AMBIGUOUS_JOIN_KEY: "Ambiguous join keys",
    INCORRECT_RULE: "Incorrect rules",
    INCORRECT_EXTRACTION: "Incorrect extractions",
    GENERAL_TYPES: "General types",
    SYNONYMS: "Synonyms",
    OTHER: "Other",
}


@dataclass
class Violation:
    """One violating entity with the facts of its violating group."""

    entity: str
    entity_class: str
    relation: str
    facts: List[Tuple[int, Fact]]  # (fact id, fact)
    category: str = OTHER


@dataclass
class ViolationAudit:
    violations: List[Violation] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.violations)

    def distribution(self) -> Dict[str, float]:
        """Fraction of violating entities per error source."""
        counts = Counter(v.category for v in self.violations)
        total = max(1, self.total)
        return {category: counts.get(category, 0) / total for category in CATEGORY_LABELS}

    def counts(self) -> Dict[str, int]:
        counts = Counter(v.category for v in self.violations)
        return {category: counts.get(category, 0) for category in CATEGORY_LABELS}


def find_violations(system: ProbKB) -> List[Violation]:
    """All functional-constraint violations currently in TΠ.

    The violating *groups* are the ones Query 3's HAVING aggregate
    reports (:func:`~repro.core.sqlgen.violating_groups_plan`), run on
    the backend; each comes back with its facts, for categorization.
    """
    rkb = system.rkb
    groups: Dict[Tuple[int, ...], List[Tuple[int, Fact]]] = {}
    for arg in (TYPE_I, TYPE_II):
        for row in system.backend.query(violating_groups_plan(arg)).rows:
            groups[(arg,) + tuple(row[:4])] = []
    if not groups:
        return []
    for row in system.backend.query(Scan("TP")).rows:
        fact_id, relation, x, c1, y, c2, _ = row
        for key in ((TYPE_I, relation, x, c1, c2), (TYPE_II, relation, y, c2, c1)):
            members = groups.get(key)
            if members is not None:
                members.append((fact_id, rkb.decode_fact(row)))

    named = sorted(
        (
            (
                rkb.relations.name(relation),
                rkb.entities.name(entity),
                rkb.classes.name(entity_class),
                rkb.classes.name(other_class),
                arg,
            ),
            members,
        )
        for (arg, relation, entity, entity_class, other_class), members in groups.items()
    )
    return [
        Violation(
            entity=entity,
            entity_class=entity_class,
            relation=relation,
            facts=sorted(members),
        )
        for (relation, entity, entity_class, _, _), members in named
    ]


def categorize_violations(
    system: ProbKB,
    generated: GeneratedKB,
    violations: Optional[List[Violation]] = None,
) -> ViolationAudit:
    """Assign each violation an error-source category (Figure 7(b)).

    Requires grounding (including ground factors) to have run so the
    lineage in TΦ is available.
    """
    if violations is None:
        violations = find_violations(system)
    lineage = system.lineage()
    facts_by_id = system._facts_by_id()
    rule_correctness = _rule_lookup(generated)

    for violation in violations:
        violation.category = _categorize(
            violation, generated, lineage, facts_by_id, rule_correctness
        )
    return ViolationAudit(violations=violations)


def _categorize(
    violation: Violation,
    generated: GeneratedKB,
    lineage: LineageIndex,
    facts_by_id: Dict[int, Fact],
    rule_correctness: Dict[Tuple, bool],
) -> str:
    base_facts = [
        (fact_id, fact) for fact_id, fact in violation.facts if fact.weight is not None
    ]
    # ambiguous entity caught red-handed: the violating entity itself
    # denotes several real-world objects and its *extracted* facts clash
    if violation.entity in generated.ambiguous_surfaces and len(base_facts) > 1:
        return AMBIGUOUS_ENTITY

    saw_join_key = saw_wrong_rule = saw_extraction = False
    saw_general = saw_synonym = False

    objects = [fact.object for _, fact in violation.facts]
    primary = {generated.synonym_surfaces.get(obj, obj) for obj in objects}
    if len(primary) < len(set(objects)):
        saw_synonym = True
    if _hierarchy_related(primary, generated):
        saw_general = True

    for fact_id, fact in violation.facts:
        if fact.key in generated.injected_error_keys:
            saw_extraction = True
        for derivation in lineage.derivations_of(fact_id):
            premises = [facts_by_id.get(i) for i in derivation.body]
            premises = [p for p in premises if p is not None]
            join_entities = _join_entities(fact, premises)
            if any(e in generated.ambiguous_surfaces for e in join_entities):
                saw_join_key = True
            correct = rule_correctness.get(
                _derivation_key(fact, premises, derivation.weight)
            )
            if correct is False:
                saw_wrong_rule = True

    if saw_join_key:
        return AMBIGUOUS_JOIN_KEY
    if saw_wrong_rule:
        return INCORRECT_RULE
    if saw_extraction:
        return INCORRECT_EXTRACTION
    if saw_general:
        return GENERAL_TYPES
    if saw_synonym:
        return SYNONYMS
    if violation.entity in generated.ambiguous_surfaces:
        return AMBIGUOUS_ENTITY
    return OTHER


def _join_entities(head: Fact, premises: Sequence[Fact]) -> Set[str]:
    """Entities shared between the body facts but absent from the head —
    the join keys z whose ambiguity poisons the inference."""
    if len(premises) < 2:
        return set()
    head_entities = {head.subject, head.object}
    first = {premises[0].subject, premises[0].object}
    second = {premises[1].subject, premises[1].object}
    return (first & second) - head_entities


def _derivation_key(head: Fact, premises: Sequence[Fact], weight: float) -> Tuple:
    return (
        head.relation,
        tuple(sorted(p.relation for p in premises)),
        round(weight, 2),
    )


def _rule_lookup(generated: GeneratedKB) -> Dict[Tuple, bool]:
    """Index rule correctness by (head relation, sorted body relations,
    weight) — enough to identify the rule behind a TΦ derivation."""
    lookup: Dict[Tuple, bool] = {}
    for rule, correct in generated.rule_is_correct.items():
        key = (
            rule.head.relation,
            tuple(sorted(atom.relation for atom in rule.body)),
            round(rule.weight, 2),
        )
        # on collision prefer flagging wrong rules (conservative)
        if key in lookup:
            lookup[key] = lookup[key] and correct
        else:
            lookup[key] = correct
    return lookup


def _hierarchy_related(objects: Set[str], generated: GeneratedKB) -> bool:
    """Do two of the group's objects stand in a located_in ancestry
    (e.g. a city and its country, both typed Place)?"""
    parent = generated.world.parent
    reals: Set[str] = set()
    for obj in objects:
        reals.update(generated.surface_to_reals.get(obj, ()))
    for real in reals:
        ancestor = parent.get(real)
        while ancestor is not None:
            if ancestor in reals:
                return True
            ancestor = parent.get(ancestor)
    return False
