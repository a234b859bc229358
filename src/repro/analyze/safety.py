"""Pass 2: safety and shape checks.

Everything here is a defect that today would surface as a
:class:`~repro.core.clauses.ClauseError` deep inside the relational
load — the analyzer reports it up front as a typed finding instead:

* PKB001 — unknown relation in a rule atom
* PKB002 — non-binary atom (the relational model is strictly binary)
* PKB003 — unsafe rule: a head variable never bound by the body
* PKB004 — untyped variable (no class annotation)
* PKB005 — shape that maps onto none of the MLN partitions M1-M6
* PKB007 — unknown class in a variable annotation
* PKB015 — non-finite or non-positive weight
"""

from __future__ import annotations

import math
from typing import List

from ..core.clauses import HornClause, partition_patterns_text
from ..core.model import KnowledgeBase
from .findings import Finding
from .typecheck import SchemaIndex


def check_rule_shape(
    rule: HornClause, rule_index: int, index: SchemaIndex
) -> List[Finding]:
    """All shape findings for rule ``rule_index`` of the index's KB."""
    findings: List[Finding] = []
    rule_text = str(rule)

    bad_arity = [
        atom for atom in (rule.head, *rule.body) if len(atom.args) != 2
    ]
    for atom in bad_arity:
        findings.append(
            Finding(
                code="PKB002",
                message=(
                    f"atom {atom.relation}{atom.args!r} has "
                    f"{len(atom.args)} arguments; relations are binary"
                ),
                rule=rule_text,
                rule_index=rule_index,
                details={"relation": atom.relation, "arity": len(atom.args)},
            )
        )
    if bad_arity:
        return findings  # shape is unknowable; later checks would cascade

    classes = rule.classes
    untyped = [var for var in rule.variables() if var not in classes]
    for var in untyped:
        findings.append(
            Finding(
                code="PKB004",
                message=f"variable {var!r} has no class annotation",
                rule=rule_text,
                rule_index=rule_index,
                details={"variable": var},
            )
        )

    for var, cls in rule.var_classes:
        if cls not in index.known_classes:
            findings.append(
                Finding(
                    code="PKB007",
                    message=(
                        f"variable {var!r} is typed over unknown class {cls!r}"
                    ),
                    rule=rule_text,
                    rule_index=rule_index,
                    details={"variable": var, "class": cls},
                )
            )

    for atom in (rule.head, *rule.body):
        if atom.relation not in index.known_relations:
            findings.append(
                Finding(
                    code="PKB001",
                    message=f"atom {atom} references unknown relation "
                    f"{atom.relation!r}",
                    rule=rule_text,
                    rule_index=rule_index,
                    details={"relation": atom.relation},
                )
            )

    body_vars = {var for atom in rule.body for var in atom.args}
    unbound = [var for var in rule.head.args if var not in body_vars]
    for var in unbound:
        findings.append(
            Finding(
                code="PKB003",
                message=(
                    f"head variable {var!r} is unbound in the body "
                    f"(unsafe rule: it would ground to every entity)"
                ),
                rule=rule_text,
                rule_index=rule_index,
                details={"variable": var},
            )
        )

    # PKB005 only when classification fails for a *new* reason: untyped
    # variables and unbound head variables already fail classification
    # and have their own codes above.
    error = index.clause_errors.get(rule_index)
    if error is not None and not untyped and not unbound:
        findings.append(
            Finding(
                code="PKB005",
                message=(
                    f"rule cannot be mapped onto MLN partitions M1-M6 "
                    f"({error}); supported shapes: "
                    f"{partition_patterns_text()}"
                ),
                rule=rule_text,
                rule_index=rule_index,
                details={"reason": str(error)},
            )
        )

    if not math.isfinite(rule.weight) or rule.weight <= 0:
        findings.append(
            Finding(
                code="PKB015",
                message=(
                    f"rule weight {rule.weight!r} is not a positive finite "
                    f"MLN weight"
                ),
                rule=rule_text,
                rule_index=rule_index,
                details={"weight": rule.weight},
            )
        )
    return findings


def check_safety(kb: KnowledgeBase, index: SchemaIndex) -> List[Finding]:
    findings: List[Finding] = []
    for rule_index, rule in enumerate(kb.rules):
        findings.extend(check_rule_shape(rule, rule_index, index))
    return findings
