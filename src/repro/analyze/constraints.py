"""Pass 4: constraint consistency (TΩ vs the schema and the rules).

* PKB010 — a functional constraint over a relation the KB never declares
* PKB011 — a constraint whose class restriction names an unknown class
* PKB012 — a rule whose head is *guaranteed* by its own body to violate
  a strictly functional constraint (δ=1): after the Definition-6
  canonical renaming the body re-uses the head relation with the same
  determining argument but a different determined variable, so every
  genuinely new derivation hands that argument a second value — exactly
  the error applyConstraints would then delete, one expensive grounding
  iteration too late.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.model import TYPE_I, FunctionalConstraint, KnowledgeBase
from .findings import Finding
from .typecheck import SchemaIndex


def _constraint_text(constraint: FunctionalConstraint) -> str:
    kind = "I" if constraint.arg == TYPE_I else "II"
    extra = ""
    if constraint.domain is not None or constraint.range is not None:
        extra = f", classes=({constraint.domain}, {constraint.range})"
    return f"{constraint.relation}[type {kind}, δ={constraint.degree}{extra}]"


def check_constraints(kb: KnowledgeBase, index: SchemaIndex) -> List[Finding]:
    findings: List[Finding] = []
    for constraint in kb.constraints:
        text = _constraint_text(constraint)
        if constraint.relation not in index.known_relations:
            findings.append(
                Finding(
                    code="PKB010",
                    message=(
                        f"functional constraint is declared over unknown "
                        f"relation {constraint.relation!r}; it can never "
                        f"remove anything"
                    ),
                    constraint=text,
                    details={"relation": constraint.relation},
                )
            )
        for role, cls in (("domain", constraint.domain), ("range", constraint.range)):
            if cls is not None and cls not in index.known_classes:
                findings.append(
                    Finding(
                        code="PKB011",
                        message=(
                            f"constraint {role} restriction names unknown "
                            f"class {cls!r}"
                        ),
                        constraint=text,
                        details={"role": role, "class": cls},
                    )
                )

    strict_constraints = [
        c for c in kb.constraints if c.degree == 1
    ]
    if strict_constraints:
        findings.extend(_check_self_violations(kb, index, strict_constraints))
    return findings


def _check_self_violations(
    kb: KnowledgeBase,
    index: SchemaIndex,
    constraints: List[FunctionalConstraint],
) -> List[Finding]:
    by_relation: Dict[str, List[FunctionalConstraint]] = {}
    for constraint in constraints:
        by_relation.setdefault(constraint.relation, []).append(constraint)

    findings: List[Finding] = []
    for rule_index, _ in index.classified:
        rule = kb.rules[rule_index]
        relevant = by_relation.get(rule.head.relation)
        if not relevant:
            continue
        head_subject, head_object = rule.head.args
        classes = rule.classes
        for constraint in relevant:
            if constraint.arg == TYPE_I:
                same_position, other_position = 0, 1
                determined = head_object
                restriction = (constraint.domain, classes.get(head_subject))
            else:
                same_position, other_position = 1, 0
                determined = head_subject
                restriction = (constraint.range, classes.get(head_object))
            if restriction[0] is not None and restriction[1] is not None:
                if not index.compatible(restriction[0], restriction[1]):
                    continue  # constraint restricted to classes the rule avoids
            for atom in rule.body:
                if atom.relation != rule.head.relation:
                    continue
                if len(atom.args) != 2:
                    continue
                # Query 3 groups violations by the full (R, x, C1, C2)
                # signature, so the body's determined argument must have
                # the *same class* as the head's for the derived fact to
                # land in the violating group.
                if (
                    atom.args[same_position]
                    == rule.head.args[same_position]
                    and atom.args[other_position] != determined
                    and classes.get(atom.args[other_position])
                    == classes.get(determined)
                ):
                    kind = "I" if constraint.arg == TYPE_I else "II"
                    argument = rule.head.args[same_position]
                    findings.append(
                        Finding(
                            code="PKB012",
                            message=(
                                f"body atom {atom} already gives "
                                f"{argument!r} a value for strictly "
                                f"functional (type {kind}, δ=1) relation "
                                f"{rule.head.relation!r}; every new fact "
                                f"this rule derives violates the "
                                f"constraint and would be deleted by "
                                f"applyConstraints"
                            ),
                            rule=str(rule),
                            rule_index=rule_index,
                            constraint=_constraint_text(constraint),
                            details={
                                "relation": rule.head.relation,
                                "functionality_type": constraint.arg,
                            },
                        )
                    )
                    break
    return findings
