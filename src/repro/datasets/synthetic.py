"""Synthetic scale-out KBs S1 and S2 (Section 6, Figure 6).

* **S1** keeps the ReVerb-Sherlock facts and sweeps the number of
  rules.  Extra rules are "randomly generated ... ensuring validity by
  substituting random heads for existing rules" — we copy an existing
  rule's body and give it a fresh head relation.
* **S2** keeps the rules and sweeps the number of facts by "adding
  random edges" over an entity pool that grows with the fact count
  (keeping the paper's sparsity: ~1.5 facts per entity).
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from ..core import Atom, Fact, HornClause, KnowledgeBase, Relation
from .reverb_sherlock import GeneratedKB


def s1_kb(base: GeneratedKB, n_rules: int, seed: int = 0) -> KnowledgeBase:
    """Fixed facts, ``n_rules`` rules (S1)."""
    rng = random.Random(seed)
    source = base.kb
    rules: List[HornClause] = list(source.rules)[:n_rules]
    relations = dict(source.relations)
    synthetic_index = 0
    while len(rules) < n_rules:
        template = rng.choice(source.rules)
        head_name = f"syn_rel_{synthetic_index}"
        synthetic_index += 1
        classes = template.classes
        head = Atom(head_name, template.head.args)
        rules.append(
            HornClause(
                head=head,
                body=template.body,
                weight=round(rng.uniform(0.2, 2.0), 2),
                var_classes=template.var_classes,
                score=round(rng.uniform(0.05, 0.95), 3),
            )
        )
        relations[head_name] = Relation(
            head_name,
            classes[template.head.args[0]],
            classes[template.head.args[1]],
        )
    return KnowledgeBase(
        classes=source.classes,
        relations=relations.values(),
        facts=source.facts,
        rules=rules,
        constraints=source.constraints,
        validate=False,
    )


def s2_kb(base: GeneratedKB, n_facts: int, seed: int = 0) -> KnowledgeBase:
    """Fixed rules, ``n_facts`` facts (S2).

    Random edges are drawn over *all* fact signatures of the base KB:
    like ReVerb, where most of the 83K relations have no rules, most
    random edges are inert.  The entity pool grows with the fact count
    to preserve the original facts-per-entity density; the new entities
    join the appropriate classes.
    """
    rng = random.Random(seed)
    source = base.kb
    facts: List[Fact] = list(source.facts)[:n_facts]
    classes: Dict[str, Set[str]] = {
        name: set(members) for name, members in source.classes.items()
    }

    if len(facts) < n_facts:
        signatures = _fact_signatures(source)
        density = max(1.0, len(source.facts) / max(1, len(source.entities)))
        extra_needed = n_facts - len(facts)
        pool_size = int(extra_needed / density) + 1
        pools: Dict[str, List[str]] = {}
        for _, subject_class, object_class in signatures:
            for class_name in (subject_class, object_class):
                if class_name not in pools:
                    fresh = [f"syn_{class_name}_{i}" for i in range(pool_size)]
                    pools[class_name] = sorted(classes.get(class_name, set())) + fresh
                    classes.setdefault(class_name, set()).update(fresh)
        seen = {fact.key for fact in facts}
        while len(facts) < n_facts:
            relation, subject_class, object_class = rng.choice(signatures)
            subject = rng.choice(pools[subject_class])
            obj = rng.choice(pools[object_class])
            fact = Fact(
                relation,
                subject,
                subject_class,
                obj,
                object_class,
                round(rng.uniform(0.5, 0.99), 2),
            )
            if fact.key in seen:
                continue
            seen.add(fact.key)
            facts.append(fact)
    return KnowledgeBase(
        classes=classes,
        relations=source.relations.values(),
        facts=facts,
        rules=source.rules,
        constraints=source.constraints,
        validate=False,
    )


def _fact_signatures(kb: KnowledgeBase) -> List[Tuple[str, str, str]]:
    """(relation, subject class, object class) triples observed in the
    base facts — random edges follow the KB's own signature mix."""
    return sorted({(f.relation, f.subject_class, f.object_class) for f in kb.facts})
