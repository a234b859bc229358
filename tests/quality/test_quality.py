"""Quality control tests: rule cleaning, the evaluation protocol, and
the violation audit."""

import pytest

from repro import GroundingConfig, ProbKB
from repro.core import Atom, HornClause
from repro.datasets import ReVerbSherlockConfig, generate
from repro.quality import (
    AMBIGUOUS_ENTITY,
    INCORRECT_RULE,
    QualityConfig,
    TABLE4_CONFIGS,
    categorize_violations,
    clean_rules,
    cleaned_kb,
    cleaning_report,
    find_violations,
    judge_precision,
    run_quality_experiment,
)


@pytest.fixture(scope="module")
def generated():
    return generate(ReVerbSherlockConfig(seed=4))


def make_rule(name, score):
    return HornClause.make(
        Atom(name, ("x", "y")),
        [Atom("q", ("x", "y"))],
        weight=1.0,
        var_classes={"x": "A", "y": "B"},
        score=score,
    )


class TestRuleCleaning:
    def test_top_theta_by_score(self):
        rules = [make_rule(f"r{i}", score=i / 10) for i in range(1, 11)]
        kept = clean_rules(rules, theta=0.3)
        assert len(kept) == 3
        assert {r.head.relation for r in kept} == {"r10", "r9", "r8"}

    def test_theta_one_keeps_all(self):
        rules = [make_rule(f"r{i}", 0.5) for i in range(5)]
        assert len(clean_rules(rules, 1.0)) == 5

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            clean_rules([], 0.0)
        with pytest.raises(ValueError):
            clean_rules([], 1.5)

    def test_cleaned_kb_preserves_facts(self, generated):
        kb = cleaned_kb(generated.kb, theta=0.2)
        assert len(kb.facts) == len(generated.kb.facts)
        assert len(kb.rules) < len(generated.kb.rules)

    def test_cleaning_report_tracks_rule_precision(self, generated):
        strict = cleaning_report(
            generated.kb.rules, 0.2, generated.rule_is_correct
        )
        loose = cleaning_report(
            generated.kb.rules, 1.0, generated.rule_is_correct
        )
        assert strict["rule_precision"] >= loose["rule_precision"]
        assert strict["rule_recall"] <= loose["rule_recall"]
        # the paper's caveat: scores are imperfect, so strict cleaning
        # still drops some correct rules
        assert strict["rule_recall"] < 1.0


class TestJudgePrecision:
    def test_empty(self, generated):
        assert judge_precision([], generated.judge) == (0.0, 0)

    def test_sampling_cap(self, generated):
        facts = generated.kb.facts[:200]
        _, judged = judge_precision(facts, generated.judge, sample_size=25)
        assert judged == 25

    def test_full_judging(self, generated):
        facts = generated.kb.facts[:50]
        precision, judged = judge_precision(facts, generated.judge)
        assert judged == 50
        assert 0.0 <= precision <= 1.0


class TestQualityExperiment:
    @pytest.fixture(scope="class")
    def results(self, generated):
        configs = [
            QualityConfig(use_constraints=False, theta=1.0),
            QualityConfig(use_constraints=True, theta=1.0),
            QualityConfig(use_constraints=True, theta=0.2),
        ]
        # the paper stops the constraint-free run once the KB "grows
        # unmanageably large" (Section 6.1.1); 60k facts is four
        # iterations here and already shows the precision collapse
        return {
            config.describe(): run_quality_experiment(
                generated, config, max_iterations=8, explosion_cap=60_000
            )
            for config in configs
        }

    def test_quality_control_improves_precision(self, results):
        assert (
            results["SC no-RC"].overall_precision
            > results["no-SC no-RC"].overall_precision
        )
        assert (
            results["SC RC top 20%"].overall_precision
            > results["no-SC no-RC"].overall_precision
        )

    def test_no_qc_precision_decays_over_iterations(self, results):
        points = results["no-SC no-RC"].points
        assert len(points) >= 3
        assert points[-1].precision < points[0].precision

    def test_cleaning_trades_recall_for_precision(self, results):
        assert (
            results["SC RC top 20%"].total_new_facts
            < results["SC no-RC"].total_new_facts
        )

    def test_curves_are_monotone_in_estimated_correct(self, results):
        for result in results.values():
            series = result.series()
            xs = [x for x, _ in series]
            assert xs == sorted(xs)

    def test_table4_configs_shape(self):
        assert len(TABLE4_CONFIGS) == 6
        labels = [c.describe() for c in TABLE4_CONFIGS]
        assert "no-SC no-RC" in labels and "SC RC top 50%" in labels


class TestViolationAudit:
    @pytest.fixture(scope="class")
    def audited(self, generated):
        system = ProbKB(
            generated.kb, grounding=GroundingConfig(apply_constraints=False)
        )
        system.ground(max_iterations=2)
        return categorize_violations(system, generated)

    def test_violations_found(self, audited):
        assert audited.total > 50

    def test_ambiguity_is_major_source(self, audited):
        """Figure 7(b): ambiguous entities are the largest single
        detected category after rule errors."""
        dist = audited.distribution()
        assert dist[AMBIGUOUS_ENTITY] > 0.15
        assert dist[INCORRECT_RULE] > 0.15

    def test_distribution_sums_to_one(self, audited):
        assert sum(audited.distribution().values()) == pytest.approx(1.0)

    def test_find_violations_without_categorization(self, generated):
        system = ProbKB(
            generated.kb, grounding=GroundingConfig(apply_constraints=False)
        )
        system.ground(max_iterations=1)
        violations = find_violations(system)
        assert violations
        for violation in violations:
            assert len(violation.facts) >= 2

    def test_constraints_remove_all_violations(self, generated):
        system = ProbKB(
            generated.kb, grounding=GroundingConfig(apply_constraints=True)
        )
        system.ground(max_iterations=3)
        assert find_violations(system) == []

    @pytest.mark.parametrize("degrees", [(1, 2), (2, 1)], ids=["1,2", "2,1"])
    def test_violations_are_the_groups_query3_removes(self, degrees):
        """Two TYPE_I constraints on one relation: Query 3 applies the
        smallest degree (``min(FC.deg)``) whatever their order, and the
        audit must report exactly the groups Query 3 deletes."""
        from repro.core import Fact, FunctionalConstraint, KnowledgeBase, TYPE_I
        from repro.datasets import paper_kb

        base = paper_kb()
        classes = {name: set(members) for name, members in base.classes.items()}
        classes["Place"].add("Queens")
        kb = KnowledgeBase(
            classes=classes,
            relations=base.relations.values(),
            facts=list(base.facts)
            + [Fact("born_in", "Ruth Gruber", "Writer", "Queens", "Place", weight=0.5)],
            rules=base.rules,
            constraints=[
                FunctionalConstraint("born_in", arg=TYPE_I, degree=degree)
                for degree in degrees
            ],
        )
        system = ProbKB(kb, grounding=GroundingConfig(analysis="off"))
        audited = {fact for v in find_violations(system) for _, fact in v.facts}
        before = set(system._facts_by_id().values())
        removed = system.apply_constraints()
        deleted = before - set(system._facts_by_id().values())
        assert int(removed) == 3
        assert audited == deleted
