"""TSV serialization of knowledge bases.

The on-disk layout mirrors how ReVerb/Sherlock artifacts ship: one
facts file of weighted triples, one rules file of Horn clauses, one
classes file, and one constraints file.  Useful for caching generated
KBs and for inspecting them with standard tools.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Callable, Dict, Iterator, List, Set, TypeVar

from ..core import (
    Atom,
    Fact,
    FunctionalConstraint,
    HornClause,
    KnowledgeBase,
    Relation,
)

FACTS_FILE = "facts.tsv"
RULES_FILE = "rules.tsv"
CLASSES_FILE = "classes.tsv"
RELATIONS_FILE = "relations.tsv"
CONSTRAINTS_FILE = "constraints.tsv"

T = TypeVar("T")


def save_kb(kb: KnowledgeBase, directory: str) -> None:
    """Write a knowledge base as TSV files under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, CLASSES_FILE), "w") as handle:
        for class_name in sorted(kb.classes):
            for entity in sorted(kb.classes[class_name]):
                handle.write(f"{class_name}\t{entity}\n")
    with open(os.path.join(directory, RELATIONS_FILE), "w") as handle:
        declared = [
            relation
            for name in sorted(kb.relation_signatures)
            for relation in kb.relation_signatures[name]
        ]
        for relation in declared:
            handle.write(f"{relation.name}\t{relation.domain}\t{relation.range}\n")
    with open(os.path.join(directory, FACTS_FILE), "w") as handle:
        for fact in kb.facts:
            weight = "" if fact.weight is None else repr(fact.weight)
            handle.write(
                f"{fact.relation}\t{fact.subject}\t{fact.subject_class}\t"
                f"{fact.object}\t{fact.object_class}\t{weight}\n"
            )
    with open(os.path.join(directory, RULES_FILE), "w") as handle:
        for rule in kb.rules:
            handle.write(_rule_line(rule) + "\n")
    with open(os.path.join(directory, CONSTRAINTS_FILE), "w") as handle:
        for constraint in kb.constraints:
            handle.write(
                f"{constraint.relation}\t{constraint.arg}\t{constraint.degree}\n"
            )


def load_kb(directory: str, analysis: str = "warn") -> KnowledgeBase:
    """Read a knowledge base written by :func:`save_kb`.

    ``analysis`` controls a post-load static-analysis pass over the
    loaded program (see :mod:`repro.analyze`): ``"warn"`` (the default)
    surfaces defects in the on-disk KB as an
    :class:`~repro.analyze.AnalysisWarning` right at load time instead
    of later inside grounding, ``"strict"`` raises
    :class:`~repro.analyze.AnalysisError`, ``"off"`` skips the pass.
    The loaded KB itself is identical in all three modes.
    """
    from ..core.config import ANALYSIS_MODES

    if analysis not in ANALYSIS_MODES:
        raise ValueError(
            f"unknown analysis mode {analysis!r} (use one of {ANALYSIS_MODES})"
        )
    classes: Dict[str, Set[str]] = {}
    for class_name, entity in _records(directory, CLASSES_FILE, 2, tuple):
        classes.setdefault(class_name, set()).add(entity)
    relations = list(_records(directory, RELATIONS_FILE, 3, lambda f: Relation(*f)))
    facts = list(_records(directory, FACTS_FILE, 6, _parse_fact))
    # weight, score, head, body atoms..., variable classes
    rules = list(_records(directory, RULES_FILE, 4, _parse_rule_fields, exact=False))
    constraints = list(_records(directory, CONSTRAINTS_FILE, 3, _parse_constraint))

    kb = KnowledgeBase(
        classes=classes,
        relations=relations,
        facts=facts,
        rules=rules,
        constraints=constraints,
        validate=False,
    )
    if analysis != "off":
        from ..analyze import AnalysisError, AnalysisWarning, analyze

        report = analyze(kb, include_infos=False)
        if report.has_errors and analysis == "strict":
            raise AnalysisError(report)
        problems = report.errors + report.warnings
        if problems:
            shown = "; ".join(f.render() for f in problems[:3])
            suffix = "" if len(problems) <= 3 else f" (+{len(problems) - 3} more)"
            warnings.warn(
                f"KB loaded from {directory!r} has defects: "
                f"{report.summary()} — {shown}{suffix} "
                f"(run `repro analyze --kb {directory}` for details)",
                AnalysisWarning,
                stacklevel=2,
            )
    return kb


def _rule_line(rule: HornClause) -> str:
    """``weight<TAB>score<TAB>head<TAB>body...<TAB>vars`` with atoms as
    ``rel(a,b)`` and vars as ``x:Class,...``."""
    atoms = [_atom_text(rule.head)] + [_atom_text(atom) for atom in rule.body]
    vars_text = ",".join(f"{var}:{cls}" for var, cls in rule.var_classes)
    return "\t".join([repr(rule.weight), repr(rule.score)] + atoms + [vars_text])


def _atom_text(atom: Atom) -> str:
    return f"{atom.relation}({atom.args[0]},{atom.args[1]})"


def _records(
    directory: str,
    filename: str,
    num_fields: int,
    parse: Callable[[List[str]], T],
    exact: bool = True,
) -> Iterator[T]:
    """``parse`` of every line's tab-separated fields, in file order.

    A line with other than ``num_fields`` fields (with ``exact=False``,
    fewer), or one ``parse`` rejects, raises ``ValueError`` naming the
    file and the 1-based line.
    """
    path = os.path.join(directory, filename)
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            text = line.rstrip("\n")
            fields = text.split("\t") if text else []
            try:
                if len(fields) < num_fields or (exact and len(fields) > num_fields):
                    expected = num_fields if exact else f"at least {num_fields}"
                    raise ValueError(f"expected {expected} fields, found {len(fields)}")
                record = parse(fields)
            except ValueError as error:
                raise ValueError(f"{path} line {number}: {error}") from None
            yield record


def _weight(text: str) -> float:
    weight = float(text)
    if not math.isfinite(weight):
        raise ValueError(f"weight {text!r} is not finite")
    return weight


def _parse_fact(fields: List[str]) -> Fact:
    relation, subject, subject_class, obj, object_class, weight = fields
    return Fact(
        relation,
        subject,
        subject_class,
        obj,
        object_class,
        _weight(weight) if weight else None,
    )


def _parse_constraint(fields: List[str]) -> FunctionalConstraint:
    relation, arg, degree = fields
    return FunctionalConstraint(relation, arg=int(arg), degree=int(degree))


def _parse_atom(text: str) -> Atom:
    relation, paren, args = text.partition("(")
    parts = args.rstrip(")").split(",") if paren else []
    if len(parts) != 2:
        raise ValueError(
            f"atom {text!r}: expected rel(a,b) with 2 arguments, found {len(parts)}"
        )
    return Atom(relation, (parts[0], parts[1]))


def _parse_rule_line(line: str) -> HornClause:
    return _parse_rule_fields(line.split("\t"))


def _parse_rule_fields(fields: List[str]) -> HornClause:
    weight, score = _weight(fields[0]), float(fields[1])
    atoms = [_parse_atom(text) for text in fields[2:-1]]
    var_classes = {}
    for item in fields[-1].split(","):
        var, _, cls = item.partition(":")
        var_classes[var] = cls
    return HornClause.make(
        atoms[0], atoms[1:], weight, var_classes, score=score
    )
