"""Quickstart: the paper's running example (Table 1 / Figure 3).

Builds the Ruth Gruber knowledge base, grounds it with the batch SQL
algorithm, prints the generated SQL, and runs marginal inference.

Run:  python examples/quickstart.py
"""

from repro import (
    Atom,
    ExpansionSession,
    Fact,
    HornClause,
    InferenceConfig,
    KnowledgeBase,
    Relation,
)


def build_kb() -> KnowledgeBase:
    """The probabilistic KB of Table 1."""
    classes = {
        "Writer": {"Ruth Gruber"},
        "City": {"New York City"},
        "Place": {"Brooklyn"},
    }
    relations = [
        Relation("born_in", "Writer", "Place"),
        Relation("live_in", "Writer", "Place"),
        Relation("grow_up_in", "Writer", "Place"),
        Relation("located_in", "Place", "City"),
    ]
    facts = [
        Fact("born_in", "Ruth Gruber", "Writer", "New York City", "City", 0.96),
        Fact("born_in", "Ruth Gruber", "Writer", "Brooklyn", "Place", 0.93),
    ]

    def live_where_born(object_class, weight):
        return HornClause.make(
            Atom("live_in", ("x", "y")),
            [Atom("born_in", ("x", "y"))],
            weight,
            {"x": "Writer", "y": object_class},
        )

    def places_nest(q_rel, weight):
        # located_in(x, y) <- q(z, x) ∧ q(z, y)
        return HornClause.make(
            Atom("located_in", ("x", "y")),
            [Atom(q_rel, ("z", "x")), Atom(q_rel, ("z", "y"))],
            weight,
            {"x": "Place", "y": "City", "z": "Writer"},
        )

    rules = [
        live_where_born("Place", 1.40),
        live_where_born("City", 1.53),
        places_nest("live_in", 0.32),
        places_nest("born_in", 0.52),
    ]
    return KnowledgeBase(
        classes=classes, relations=relations, facts=facts, rules=rules
    )


def main() -> None:
    kb = build_kb()
    print("Input KB:", kb)

    with ExpansionSession(
        kb, inference=InferenceConfig(sweeps=2000, seed=0)
    ) as session:
        print("\nGenerated grounding SQL (Query 1-3, exactly the paper's):\n")
        print(session.generated_sql()["Query 1-3"])

        result = session.ground()
        print(
            f"\nGrounding: {result.total_new_facts} new facts in "
            f"{len(result.iterations)} iterations, "
            f"{result.factors} ground factors"
        )

        marginals = session.infer()
        print("\nKnowledge expansion results (marginal probabilities):")
        for fact, probability in sorted(
            marginals.items(), key=lambda item: -item[1]
        ):
            marker = "extracted" if fact.weight is not None else "INFERRED"
            print(f"  P={probability:.2f}  [{marker}]  {fact.relation}"
                  f"({fact.subject}, {fact.object})")


if __name__ == "__main__":
    main()
