"""The Section 6.2 evaluation protocol: precision of inferred facts.

For each quality-control configuration (semantic constraints on/off ×
rule-cleaning θ) the experiment runs the grounding loop iteration by
iteration; each iteration's newly inferred facts are judged (by the
oracle standing in for the paper's two human judges, optionally via the
paper's 25-fact random sample) and accumulated into a precision-vs-
estimated-correct-facts curve — the data behind Figure 7(a).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core import Fact, GroundingConfig, ProbKB
from ..datasets.reverb_sherlock import GeneratedKB, OracleJudge
from .rule_cleaning import cleaned_kb


@dataclass(frozen=True)
class QualityConfig:
    """One line of Figure 7(a) / Table 4."""

    use_constraints: bool
    theta: float
    label: str = ""

    def describe(self) -> str:
        if self.label:
            return self.label
        sc = "SC" if self.use_constraints else "no-SC"
        rc = "no-RC" if self.theta >= 1.0 else f"RC top {int(self.theta * 100)}%"
        return f"{sc} {rc}"


#: The paper's Table 4 parameter grid.
G1_CONFIGS = [
    QualityConfig(use_constraints=False, theta=1.0),
    QualityConfig(use_constraints=False, theta=0.2),
    QualityConfig(use_constraints=False, theta=0.1),
]
G2_CONFIGS = [
    QualityConfig(use_constraints=True, theta=1.0),
    QualityConfig(use_constraints=True, theta=0.5),
    QualityConfig(use_constraints=True, theta=0.2),
]
TABLE4_CONFIGS = G1_CONFIGS + G2_CONFIGS


@dataclass
class CurvePoint:
    """One judged batch of newly inferred facts."""

    iteration: int
    new_facts: int
    sample_size: int
    precision: float
    estimated_correct: float  # cumulative


@dataclass
class QualityRunResult:
    config: QualityConfig
    points: List[CurvePoint] = field(default_factory=list)
    total_new_facts: int = 0
    exploded: bool = False  # KB grew past the safety cap (the paper's
    # no-constraints run could not finish grounding either)

    @property
    def estimated_correct(self) -> float:
        return self.points[-1].estimated_correct if self.points else 0.0

    @property
    def overall_precision(self) -> float:
        if not self.total_new_facts:
            return 0.0
        return self.estimated_correct / self.total_new_facts

    def series(self) -> List[Tuple[float, float]]:
        """(estimated correct facts, precision) pairs for plotting."""
        return [(p.estimated_correct, p.precision) for p in self.points]


def judge_precision(
    facts: Sequence[Fact],
    judge: OracleJudge,
    sample_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Tuple[float, int]:
    """The paper's estimator: precision = (correct + probable) / sample.

    ``sample_size=None`` judges every fact (exact); the paper used
    random samples of 25.
    """
    if not facts:
        return 0.0, 0
    sampled = list(facts)
    if sample_size is not None and len(sampled) > sample_size:
        rng = rng or random.Random(0)
        sampled = rng.sample(sampled, sample_size)
    acceptable = sum(1 for fact in sampled if judge.is_acceptable(fact))
    return acceptable / len(sampled), len(sampled)


def run_quality_experiment(
    generated: GeneratedKB,
    config: QualityConfig,
    backend: str = "single",
    max_iterations: int = 15,
    sample_size: Optional[int] = None,
    explosion_cap: int = 500_000,
    seed: int = 0,
) -> QualityRunResult:
    """Run one Figure 7(a) line.

    Grounds iteration by iteration; judges each iteration's new facts;
    stops at closure, when an iteration adds no more correct facts, or
    when the KB size passes ``explosion_cap`` (mirroring the paper's
    unfinishable no-constraint run).
    """
    kb = cleaned_kb(generated.kb, config.theta)
    system = ProbKB(
        kb,
        backend=backend,
        grounding=GroundingConfig(apply_constraints=config.use_constraints),
    )
    rng = random.Random(seed)
    outcome = QualityRunResult(config=config)
    estimated_correct = 0.0

    for iteration in range(1, max_iterations + 1):
        first_new_id = system.rkb.next_fact_id
        system.grounder.ground_atoms_iteration(iteration)
        # the iteration's facts still in TΠ: those the constraints
        # already removed were never released, so they are not judged
        new_facts = [
            system.rkb.decode_fact(row)
            for row in system.backend.query(system.rkb.facts_since(first_new_id)).rows
        ]
        outcome.total_new_facts += len(new_facts)
        if not new_facts:
            break
        precision, judged = judge_precision(
            new_facts, generated.judge, sample_size=sample_size, rng=rng
        )
        estimated_correct += precision * len(new_facts)
        outcome.points.append(
            CurvePoint(
                iteration=iteration,
                new_facts=len(new_facts),
                sample_size=judged,
                precision=precision,
                estimated_correct=estimated_correct,
            )
        )
        if system.fact_count() > explosion_cap:
            outcome.exploded = True
            break
        if precision == 0.0 and iteration > 1:
            break  # no more correct facts are being inferred
    return outcome


def run_figure7a(
    generated: GeneratedKB,
    configs: Sequence[QualityConfig] = TABLE4_CONFIGS,
    backend: str = "single",
    max_iterations: int = 15,
    sample_size: Optional[int] = None,
    explosion_cap: int = 500_000,
) -> List[QualityRunResult]:
    """All six quality configurations (Table 4 / Figure 7(a))."""
    return [
        run_quality_experiment(
            generated,
            config,
            backend=backend,
            max_iterations=max_iterations,
            sample_size=sample_size,
            explosion_cap=explosion_cap,
        )
        for config in configs
    ]
