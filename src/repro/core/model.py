"""The formal probabilistic knowledge base model (Definition 1).

A probabilistic KB is a 5-tuple Γ = (E, C, R, Π, L) of entities,
classes, relations, weighted facts (relationships), and weighted rules.
L splits into the deductive rules H (soft Horn clauses) and the
semantic constraints Ω (hard rules, Remark 2) — we keep them separate
as Γ = (E, C, R, Π, H, Ω), the form the quality-control section uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .clauses import ClauseError, HornClause, classify_clause

TYPE_I = 1
TYPE_II = 2


@dataclass(frozen=True)
class Relation:
    """A typed binary relation R(domain, range) ∈ R."""

    name: str
    domain: str
    range: str

    @property
    def signature(self) -> Tuple[str, str, str]:
        return (self.name, self.domain, self.range)

    def __str__(self) -> str:
        return f"{self.name}({self.domain}, {self.range})"


@dataclass(frozen=True)
class Fact:
    """A weighted relationship (r, w) ∈ Π: r = R(x, y).

    ``weight`` is None for *inferred* facts whose weight is determined
    later by marginal inference (Section 4.3: inferred facts get NULL
    weights during grounding).
    """

    relation: str
    subject: str
    subject_class: str
    object: str
    object_class: str
    weight: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str, str, str, str]:
        """Semantic identity used for set-union of facts."""
        return (
            self.relation,
            self.subject,
            self.subject_class,
            self.object,
            self.object_class,
        )

    def __str__(self) -> str:
        prefix = f"{self.weight:.2f} " if self.weight is not None else ""
        return f"{prefix}{self.relation}({self.subject}, {self.object})"


def finite_weight(value: object, field: str = "weight") -> float:
    """``value`` as a fact's or rule's MLN weight: a finite float.  NaN
    or ±∞ would reach TΦ, where every later inference rejects the
    factor graph, so each input path calls this before it stores or
    queues anything; the ValueError names ``field`` and the value."""
    try:
        weight = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"{field} must be a number, got {value!r}") from None
    if not math.isfinite(weight):
        raise ValueError(f"{field} {value!r} is not finite")
    return weight


def check_weights(facts: Iterable[Fact]) -> None:
    """:func:`finite_weight` over every weighted fact of ``facts``."""
    for fact in facts:
        if fact.weight is not None:
            finite_weight(fact.weight, f"weight of {fact.relation}({fact.subject}, {fact.object})")


@dataclass(frozen=True)
class FunctionalConstraint:
    """A functional semantic constraint ω ∈ Ω (Definitions 8-11).

    ``arg`` is the functionality type: TYPE_I means the subject
    determines the object (born_in); TYPE_II the converse (capital_of).
    ``degree`` is the pseudo-functionality degree δ: a Type-I relation
    tolerates up to δ distinct objects per subject (δ=1 for strictly
    functional relations).

    Per Section 5.4, constraints whose functionality holds for all
    associated classes omit the class components; ``domain``/``range``
    of None mean "applies to every class pair".
    """

    relation: str
    arg: int = TYPE_I
    degree: int = 1
    domain: Optional[str] = None
    range: Optional[str] = None

    def __post_init__(self) -> None:
        if self.arg not in (TYPE_I, TYPE_II):
            raise ValueError(f"functionality type must be 1 or 2, got {self.arg}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")


class KnowledgeBaseError(ValueError):
    """Invalid knowledge base construction."""


class KnowledgeBase:
    """Γ = (E, C, R, Π, H, Ω) with validation.

    Entities, classes, and relations are referenced by name (strings);
    the relational model (``repro.core.relmodel``) dictionary-encodes
    them into integers.
    """

    def __init__(
        self,
        classes: Mapping[str, Iterable[str]],
        relations: Iterable[Relation],
        facts: Iterable[Fact] = (),
        rules: Iterable[HornClause] = (),
        constraints: Iterable[FunctionalConstraint] = (),
        validate: bool = True,
    ) -> None:
        self.classes: Dict[str, Set[str]] = {
            name: set(members) for name, members in classes.items()
        }
        self.relations: Dict[str, Relation] = {}
        #: every declared signature per relation name.  ReVerb-style KBs
        #: type one relation name over several class pairs; ``relations``
        #: keeps the first signature per name for schema lookups, this
        #: keeps them all (the static analyzer type-checks against it).
        self.relation_signatures: Dict[str, List[Relation]] = {}
        for relation in relations:
            self.relations.setdefault(relation.name, relation)
            declared = self.relation_signatures.setdefault(relation.name, [])
            if relation not in declared:
                declared.append(relation)
        self.facts: List[Fact] = []
        self._fact_keys: Set[Tuple[str, str, str, str, str]] = set()
        self.rules: List[HornClause] = []
        self.constraints: List[FunctionalConstraint] = list(constraints)
        self._validate = validate

        for fact in facts:
            self.add_fact(fact)
        for rule in rules:
            self.add_rule(rule)

    # -- membership ------------------------------------------------------------

    @property
    def entities(self) -> Set[str]:
        """E: the union of all class memberships."""
        members: Set[str] = set()
        for values in self.classes.values():
            members |= values
        return members

    def add_fact(self, fact: Fact) -> bool:
        """Add a fact with set semantics; returns True if new."""
        if self._validate:
            self._check_fact(fact)
        if fact.key in self._fact_keys:
            return False
        self._fact_keys.add(fact.key)
        self.facts.append(fact)
        return True

    def add_rule(self, rule: HornClause) -> None:
        if rule.is_hard:
            raise KnowledgeBaseError(
                "hard rules belong in the constraint set Ω; "
                "use FunctionalConstraint"
            )
        if self._validate:
            # raises ClauseError (naming the rule and the supported
            # partition patterns) for unsupported shapes.  With
            # validate=False the rule is admitted as-is so that
            # ``repro.analyze`` can report on degenerate programs; the
            # relational load re-checks before grounding.
            classify_clause(rule)
        self.rules.append(rule)

    def _check_fact(self, fact: Fact) -> None:
        for class_name, entity in (
            (fact.subject_class, fact.subject),
            (fact.object_class, fact.object),
        ):
            members = self.classes.get(class_name)
            if members is None:
                raise KnowledgeBaseError(
                    f"fact {fact} references unknown class {class_name!r}"
                )
            if entity not in members:
                raise KnowledgeBaseError(
                    f"fact {fact}: entity {entity!r} not in class {class_name!r}"
                )

    # -- summary -----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Table-2 style statistics."""
        return {
            "relations": len(self.relations),
            "rules": len(self.rules),
            "entities": len(self.entities),
            "facts": len(self.facts),
            "classes": len(self.classes),
            "constraints": len(self.constraints),
        }

    def subclass_pairs(self) -> List[Tuple[str, str]]:
        """The implied class hierarchy (Remark 1): Ci ⊆ Cj pairs."""
        names = list(self.classes)
        pairs = []
        for child in names:
            for parent in names:
                if child != parent and self.classes[child] <= self.classes[parent]:
                    pairs.append((child, parent))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"KnowledgeBase(|E|={stats['entities']}, |C|={stats['classes']}, "
            f"|R|={stats['relations']}, |Π|={stats['facts']}, "
            f"|H|={stats['rules']}, |Ω|={stats['constraints']})"
        )
