"""ProbKB: the public facade of the system.

Ties together the relational model, the batch grounding algorithm,
quality control, and marginal inference:

    >>> from repro import ProbKB
    >>> from repro.api import BackendConfig, MPPConfig
    >>> system = ProbKB(kb, backend=BackendConfig(kind="mpp",
    ...                                           mpp=MPPConfig(num_segments=8)))
    >>> grounding = system.ground()
    >>> marginals = system.infer()          # InferenceResult ({Fact: probability})
    >>> new = system.new_facts(marginals, min_probability=0.5)
"""

from __future__ import annotations

import math
import time
import warnings
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from ..infer.bp import bp_marginals
from ..infer.components import ComponentSnapshot, all_snapshots, sample_components
from ..infer.factor_graph import FactorGraph
from ..relational import Scan, to_sql
from ..relational.expr import IsNull, col, conj, eq_const
from ..relational.plan import Filter, HashJoin, PlanNode, Project
from ..relational.types import Row
from .backends import Backend
from .clauses import HornClause
from .config import BackendConfig, GroundingConfig, InferenceConfig, build_backend
from .grounding import Grounder, GroundingResult, check_iteration_cap
from .lineage import LineageIndex
from .model import Fact, KnowledgeBase, finite_weight
from .relmodel import FACT_KEY_COLUMNS, RelationalKB, store_marginals
from .results import ConstraintResult, InferenceResult
from .sqlgen import (
    apply_constraints_key_plan,
    ground_atoms_plan,
    ground_factors_plan,
    singleton_factors_plan,
)

if TYPE_CHECKING:
    from ..analyze import AnalysisReport, StaticPlanReport
    from ..relational.verify import VerificationReport

_Self = TypeVar("_Self", bound="ProbKB")


class ProbKB:
    """A probabilistic knowledge base loaded and ready for expansion.

    Thread-safety: a ProbKB instance is **not** safe for concurrent use.
    Mutating entry points (:meth:`ground`, :meth:`add_evidence`,
    :meth:`apply_constraints`, :meth:`materialize_marginals`) update the
    backend tables and the dictionaries in place; readers that interleave
    with them can observe partially merged state.  ``repro.serve``
    wraps an instance in a readers-writer lock for concurrent serving.
    Every mutation bumps :attr:`generation`, so callers holding results
    can detect that the KB has changed underneath them.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        backend: Union[BackendConfig, Backend, str, None] = None,
        *,
        grounding: Optional[GroundingConfig] = None,
        inference: Optional[InferenceConfig] = None,
    ) -> None:
        self.kb = kb
        spec = backend or BackendConfig()
        #: the config the backend was built from (None for a live Backend)
        self.backend_config = spec if isinstance(spec, BackendConfig) else None
        self.backend = build_backend(spec)
        self.grounding_config = grounding or GroundingConfig()
        self.inference_config = inference or InferenceConfig()
        self.analysis_report = self._preflight_analysis()
        load_start = self.backend.elapsed_seconds
        self.rkb = RelationalKB(kb, self.backend)
        self.load_seconds = self.backend.elapsed_seconds - load_start
        self.grounder = Grounder(
            self.rkb,
            apply_constraints=self.grounding_config.apply_constraints,
            semi_naive=self.grounding_config.semi_naive,
        )
        self.grounding: Optional[GroundingResult] = None
        #: what the last inference run reported, keyed by engine name
        self._last_inference: Dict[str, Dict[str, Any]] = {}
        #: monotone counter, bumped every time stored state mutates
        self.generation = 0

    def _preflight_analysis(self) -> Optional["AnalysisReport"]:
        """The static-analysis gate (GroundingConfig.analysis).

        ``"off"`` skips analysis entirely; ``"warn"`` runs it and emits
        one :class:`~repro.analyze.AnalysisWarning` summarizing any
        errors/warnings (analysis is pure, so grounding output stays
        bit-identical to ``"off"``); ``"strict"`` raises
        :class:`~repro.analyze.AnalysisError` instead of loading a KB
        program with error-severity findings.  Returns the report (or
        None when off) for callers that want the full diagnostics.
        """
        mode = self.grounding_config.analysis
        if mode == "off":
            return None
        from ..analyze import AnalysisError, AnalysisWarning, analyze

        report = analyze(self.kb, backend=self.backend)
        if report.has_errors and mode == "strict":
            raise AnalysisError(report)
        problems = report.errors + report.warnings
        if problems:
            shown = "; ".join(f.render() for f in problems[:3])
            suffix = "" if len(problems) <= 3 else f" (+{len(problems) - 3} more)"
            warnings.warn(
                f"static analysis: {report.summary()} — {shown}{suffix} "
                f"(run `repro analyze` for the full report)",
                AnalysisWarning,
                stacklevel=4,
            )
        return report

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker pools); idempotent."""
        self.backend.close()

    def __enter__(self: _Self) -> _Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pipeline ------------------------------------------------------------------

    def apply_constraints(self) -> ConstraintResult:
        """Run Query 3 once (e.g. up-front cleaning as in Section 6.1.1).

        Returns a :class:`ConstraintResult` — an ``int`` (facts removed)
        that also carries the modelled time and per-type breakdown.
        """
        start = self.backend.elapsed_seconds
        removed, per_type = self.grounder.apply_constraints_detailed()
        self.backend.after_facts_changed()
        self.generation += 1
        return ConstraintResult(
            removed,
            elapsed_seconds=self.backend.elapsed_seconds - start,
            per_type=per_type,
        )

    def ground(self, max_iterations: Optional[int] = None) -> GroundingResult:
        """Run Algorithm 1; returns per-iteration statistics."""
        if max_iterations is None:
            max_iterations = self.grounding_config.max_iterations
        return self._expand_with(self.grounder, max_iterations, reground_factors=True)

    def add_evidence(
        self,
        facts: Sequence[Fact],
        max_iterations: Optional[int] = None,
        reground_factors: bool = True,
    ) -> GroundingResult:
        """Incrementally expand the KB with new extracted evidence.

        The new facts become the semi-naive delta, so each follow-up
        iteration joins only what changed — no re-derivation of the
        existing closure.  TΦ is rebuilt afterwards (factors are a
        function of the final atom set).
        """
        check_iteration_cap(max_iterations)  # before the evidence is merged
        incremental = Grounder(
            self.rkb,
            apply_constraints=self.grounder.apply_constraints_each_iteration,
            semi_naive=True,
        )
        added = self.rkb.add_evidence(facts)
        outcome = self._expand_with(incremental, max_iterations, reground_factors)
        # the evidence itself counts as new knowledge in the report
        if outcome.iterations:
            outcome.iterations[0].new_facts += added
        return outcome

    def add_rules(
        self, rules: Sequence[HornClause], max_iterations: Optional[int] = None
    ) -> GroundingResult:
        """Incrementally expand the KB with new deductive rules.

        The same static-analysis gate that guards construction runs over
        the combined program (existing KB plus the new rules): under
        ``analysis="strict"`` an error-severity finding rejects the
        whole batch and leaves the KB untouched; under ``"warn"`` the
        findings are emitted as an :class:`~repro.analyze.AnalysisWarning`.
        Accepted rules are merged into the MLN tables and a full naive
        grounding pass derives their consequences (a new rule must see
        every existing fact, so the semi-naive delta does not apply).
        """
        check_iteration_cap(max_iterations)  # before the rules are merged
        rules = list(rules)
        for rule in rules:
            finite_weight(rule.weight, f"weight of rule {rule.head}")
        rules_before = len(self.kb.rules)
        report_before = self.analysis_report
        try:
            for rule in rules:
                self.kb.add_rule(rule)
            self.analysis_report = self._preflight_analysis()
            # a validate=False KB (a snapshot's) admits any shape above;
            # the relational load is then the first to reject one, and
            # does so before it stores anything
            self.rkb.add_rules(rules)
        except Exception:
            del self.kb.rules[rules_before:]
            self.analysis_report = report_before
            raise
        grounder = Grounder(
            self.rkb,
            apply_constraints=self.grounding_config.apply_constraints,
            semi_naive=False,
        )
        return self._expand_with(grounder, max_iterations, reground_factors=True)

    def _expand_with(
        self,
        grounder: Grounder,
        max_iterations: Optional[int],
        reground_factors: bool,
    ) -> GroundingResult:
        """Run a grounder's atom iterations, rebuild TΦ (factors are a
        function of the final atom set) and record the outcome as this
        KB's latest grounding."""
        outcome = GroundingResult()
        outcome.iterations, outcome.converged = grounder.ground_atoms(
            max_iterations
        )
        if reground_factors:
            self.backend.truncate("TF")
            outcome.factors, outcome.factor_seconds = grounder.ground_factors()
        self.grounding = outcome
        outcome.load_seconds = self.load_seconds
        self.generation += 1
        return outcome

    def explain(self) -> "StaticPlanReport":
        """Static EXPLAIN of every grounding query for this backend —
        Figure 4's plan trees with estimated rows and modelled seconds,
        without executing anything (see :mod:`repro.analyze.plans` and
        the ``repro explain`` CLI)."""
        from ..analyze import estimate_plans

        return estimate_plans(self.kb, self.backend)

    def verify_plans(self) -> List["VerificationReport"]:
        """Run the plan verifier (PKB201-212) over the plans of
        :meth:`explain`: the logical plans plus, on a multi-segment
        cluster, the statically planned physical plans.  Pure — nothing
        executes, no table changes."""
        from ..analyze import verify_report

        return verify_report(self.explain())

    def factor_rows(self) -> List[Row]:
        return self.backend.query(Scan("TF")).rows

    def factor_graph(self) -> FactorGraph:
        """The ground factor graph handed to the inference engine."""
        return FactorGraph.from_factor_rows(self.factor_rows())

    def infer(self, config: Optional[InferenceConfig] = None) -> InferenceResult:
        """Marginal probabilities of every fact (observed and inferred).

        Returns an :class:`InferenceResult` — a ``{Fact: probability}``
        dict that also records the method, parameters, wall-clock time,
        and factor-graph size.
        """
        config = config or self.inference_config
        rows = self.factor_rows()
        started = time.perf_counter()
        if config.engine == "gibbs":
            marginals = self.sample_snapshots(all_snapshots(rows), config)
        else:
            marginals = self._bp_marginals(rows)
        elapsed = time.perf_counter() - started
        by_id = self._facts_by_id()
        resolved = {
            by_id[fact_id]: probability
            for fact_id, probability in marginals.items()
            if fact_id in by_id
        }
        return InferenceResult(
            resolved,
            method=config.engine,
            num_sweeps=config.sweeps,
            seed=config.seed,
            elapsed_seconds=elapsed,
            num_variables=len(marginals),
            num_factors=len(rows),
        )

    def sample_snapshots(
        self,
        snapshots: Sequence[ComponentSnapshot],
        config: Optional[InferenceConfig] = None,
    ) -> Dict[int, float]:
        """Gibbs marginals of a batch of component snapshots, keyed by
        fact id.  :meth:`infer` and the delta path both sample here, so
        :meth:`inference_info` describes whichever ran last."""
        config = config or self.inference_config
        started = time.perf_counter()
        sample = sample_components(snapshots, config.sweeps, config.seed)
        self._last_inference["gibbs"] = {
            "components": sample.components,
            "colors": sample.colors,
            "wall_seconds": time.perf_counter() - started,
        }
        return sample.marginals

    def _bp_marginals(self, rows: Sequence[Row]) -> Dict[int, float]:
        """Loopy BP over the whole factor graph; warns once when it stops
        unconverged."""
        started = time.perf_counter()
        result = bp_marginals(FactorGraph.from_factor_rows(rows))
        self._last_inference["bp"] = {
            "iterations": result.iterations,
            "converged": result.converged,
            "wall_seconds": time.perf_counter() - started,
        }
        if not result.converged:
            warnings.warn(
                f"belief propagation did not converge in {result.iterations} "
                f"iterations (final residual {result.max_residual:.3g}); "
                "marginals are approximate",
                RuntimeWarning,
                stacklevel=2,
            )
        return result.marginals

    def inference_info(
        self, config: Optional[InferenceConfig] = None
    ) -> Dict[str, Any]:
        """Engine introspection (engine, components, colours and
        wall clock of the engine's last run, from :meth:`infer` or a
        delta flush) — the inference counterpart of ``executor_info()``."""
        config = config or self.inference_config
        info: Dict[str, Any] = {
            "sweeps": config.sweeps,
            "seed": config.seed,
            "engine": config.engine,
        }
        info.update(self._last_inference.get(config.engine, {}))
        return info

    # -- results ----------------------------------------------------------------------

    def all_facts(self) -> List[Fact]:
        return [self.rkb.decode_fact(row) for row in self.backend.query(Scan("TP")).rows]

    def inferred_facts(self) -> List[Fact]:
        """Facts added by knowledge expansion (NULL-weight TΠ rows)."""
        plan = Filter(Scan("TP", "T"), IsNull(col("T.w")))
        return [self.rkb.decode_fact(row) for row in self.backend.query(plan).rows]

    def new_facts(
        self,
        marginals: Optional[Dict[Fact, float]] = None,
        min_probability: float = 0.0,
    ) -> List[Tuple[Fact, Optional[float]]]:
        """Inferred facts with their marginals, filtered by probability."""
        inferred = self.inferred_facts()
        if marginals is None:
            return [(fact, None) for fact in inferred]
        by_key = _marginals_by_key(marginals)
        results = []
        for fact in inferred:
            probability = by_key.get(fact.key)
            if probability is not None and probability >= min_probability:
                results.append((fact, probability))
        return results

    def lineage(self) -> LineageIndex:
        return LineageIndex(self.factor_rows())

    # -- materialized marginals & query-time access ---------------------------

    def materialize_marginals(
        self,
        marginals: Optional[Dict[Fact, float]] = None,
        config: Optional[InferenceConfig] = None,
    ) -> int:
        """Store marginal probabilities in the database (table TProb).

        ProbKB "stores all the inferred results in the knowledge base,
        thereby avoiding query-time computation and improving system
        responsivity" (Section 2.2) — after this, :meth:`query_facts`
        answers probabilistic queries straight from the tables.
        """
        if marginals is None:
            marginals = self.infer(config)
        key_to_id = {
            row[1:]: row[0]
            for row in self.backend.project("TP", ("I",) + FACT_KEY_COLUMNS)
        }
        rows = []
        for fact, probability in marginals.items():
            fact_id = key_to_id.get(self.rkb.encode_fact_key(fact))
            if fact_id is not None:
                rows.append((fact_id, probability))
        inserted = store_marginals(self.backend, rows)
        self.generation += 1
        return inserted

    def query_facts(
        self,
        relation: Optional[str] = None,
        subject: Optional[str] = None,
        object: Optional[str] = None,
        min_probability: float = 0.0,
    ) -> List[Tuple[Fact, Optional[float]]]:
        """Query the expanded KB by pattern, with stored probabilities.

        Filters run as relational plans inside the backend: one statement
        fetches the matched TΠ rows, a second joins them with TProb for
        their probabilities (collocated on MPP: both tables are hashed on
        ``I``), so only the matched facts' marginals leave the engine.
        Facts without a materialized marginal (or before
        materialization) carry probability None and pass any threshold
        of 0.
        """
        if math.isnan(min_probability):
            raise ValueError("min_probability must be a number, got nan")
        predicates = []
        if relation is not None:
            relation_id = self.rkb.relations.lookup(relation)
            if relation_id is None:
                return []
            predicates.append(eq_const("T.R", relation_id))
        if subject is not None:
            subject_id = self.rkb.entities.lookup(subject)
            if subject_id is None:
                return []
            predicates.append(eq_const("T.x", subject_id))
        if object is not None:
            object_id = self.rkb.entities.lookup(object)
            if object_id is None:
                return []
            predicates.append(eq_const("T.y", object_id))

        plan: PlanNode = Scan("TP", "T")
        if predicates:
            plan = Filter(plan, conj(*predicates))
        rows = self.backend.query(plan).rows

        probabilities: Dict[int, float] = {}
        if rows and self.backend.has_table("TProb"):
            joined = HashJoin(plan, Scan("TProb", "P"), ["T.I"], ["P.I"])
            matched = Project(joined, [(col("T.I"), "I"), (col("P.p"), "p")])
            probabilities = dict(self.backend.query(matched).rows)

        results: List[Tuple[Fact, Optional[float]]] = []
        for row in rows:
            probability = probabilities.get(row[0])
            if probability is None:
                if min_probability > 0.0:
                    continue
            elif probability < min_probability:
                continue
            results.append((self.rkb.decode_fact(row), probability))
        return results

    def _facts_by_id(self) -> Dict[int, Fact]:
        rows = self.backend.query(Scan("TP")).rows
        return {row[0]: self.rkb.decode_fact(row) for row in rows}

    # -- introspection -----------------------------------------------------------------

    def generated_sql(self) -> Dict[str, str]:
        """The actual SQL the grounding algorithm runs (paper Figure 3)."""
        queries: Dict[str, str] = {}
        for partition in self.rkb.nonempty_partitions or [1, 3]:
            queries[f"Query 1-{partition}"] = to_sql(
                ground_atoms_plan(partition, self.backend, mln_alias=f"M{partition}")
            )
            queries[f"Query 2-{partition}"] = to_sql(
                ground_factors_plan(partition, self.backend, mln_alias=f"M{partition}")
            )
        queries["Query 3 (type I subquery)"] = to_sql(apply_constraints_key_plan(1))
        queries["Query 3 (type II subquery)"] = to_sql(apply_constraints_key_plan(2))
        queries["singleton factors"] = to_sql(singleton_factors_plan(self.backend))
        return queries

    def fact_count(self) -> int:
        return self.rkb.fact_count()

    def factor_count(self) -> int:
        return self.rkb.factor_count()

    @property
    def elapsed_seconds(self) -> float:
        return self.backend.elapsed_seconds


def _marginals_by_key(
    marginals: Dict[Fact, float]
) -> Dict[Tuple[str, str, str, str, str], float]:
    """Re-key marginals by semantic fact key (weights differ between the
    Fact a caller holds and the Fact inference returned, so the dataclass
    hash cannot be used directly)."""
    return {fact.key: probability for fact, probability in marginals.items()}
