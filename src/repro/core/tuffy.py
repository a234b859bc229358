"""Tuffy-T: the baseline system (Section 6.1).

Tuffy [Niu et al., VLDB'11] grounds MLNs in an RDBMS but stores *each
relation in its own table* and applies *each rule with its own SQL
query* — O(n) statements per iteration for n rules, against ProbKB's
three (one staging INSERT for all k partitions).  The original Tuffy is
untyped; following the paper we re-implement it with typing ("Tuffy-T")
so both systems derive identical facts and differ only in how the work
is issued to the database.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from ..relational import Database, Filter, HashJoin, PlanNode, Project, Scan, col, const, schema
from ..relational.expr import And, Expr, IsNull, conj, eq_const
from ..relational.types import Row
from .clauses import PARTITION_BODY_PATTERNS, classify_clause
from .grounding import (
    DEFAULT_MAX_ITERATIONS, GroundingResult, IterationStats, check_iteration_cap,
)
from .model import Fact, KnowledgeBase
from .relmodel import Dictionary, TF_SCHEMA

_ARG_COLUMNS = (("x", "C1"), ("y", "C2"))


class _RuleSpec:
    """One rule, dictionary-encoded, ready to compile into its query."""

    __slots__ = ("partition", "relations", "classes", "weight")

    def __init__(
        self,
        partition: int,
        relations: Tuple[int, ...],
        classes: Tuple[int, ...],
        weight: float,
    ) -> None:
        self.partition = partition
        self.relations = relations  # (R1, R2[, R3]) ids
        self.classes = classes  # (C1, C2[, C3]) ids
        self.weight = weight

    def class_of(self, var: str) -> int:
        return self.classes[{"x": 0, "y": 1, "z": 2}[var]]


class TuffyT:
    """The per-rule, per-relation-table grounding baseline."""

    def __init__(self, kb: KnowledgeBase, name: str = "tuffy-t") -> None:
        self.kb = kb
        self.db = Database(name)
        self.entities = Dictionary()
        self.classes = Dictionary()
        self.relations = Dictionary()
        self._fact_keys: Set[Tuple[int, int, int, int, int]] = set()
        self._next_fact_id = 0
        self.rules: List[_RuleSpec] = []
        self._load()

    # -- loading -------------------------------------------------------------

    def _pred_table(self, relation_id: int) -> str:
        return f"pred_{relation_id}"

    def _load(self) -> None:
        kb = self.kb
        for rule in kb.rules:
            classified = classify_clause(rule)
            self.rules.append(
                _RuleSpec(
                    classified.partition,
                    tuple(self.relations.id(r) for r in classified.relations),
                    tuple(self.classes.id(c) for c in classified.classes),
                    classified.weight,
                )
            )

        by_relation: Dict[int, List[Row]] = defaultdict(list)
        for fact in kb.facts:
            key = self._encode_key(fact)
            if key in self._fact_keys:
                continue
            self._fact_keys.add(key)
            by_relation[key[0]].append(
                (self._next_fact_id,) + key[1:] + (fact.weight,)
            )
            self._next_fact_id += 1

        # one table per relation — this is what makes Tuffy's bulkload
        # O(|R|) statements (83K tables for ReVerb in the paper)
        relation_ids = sorted(
            {self.relations.id(name) for name in kb.relations}
            | set(by_relation)
        )
        for relation_id in relation_ids:
            table_name = self._pred_table(relation_id)
            self.db.create_table(
                schema(table_name, "I:int", "x:int", "C1:int", "y:int", "C2:int", "w:float")
            )
            self.db.bulkload(table_name, by_relation.get(relation_id, []))
        self.db.create_table(TF_SCHEMA)

    def _encode_key(self, fact: Fact) -> Tuple[int, int, int, int, int]:
        return (
            self.relations.id(fact.relation),
            self.entities.id(fact.subject),
            self.classes.id(fact.subject_class),
            self.entities.id(fact.object),
            self.classes.id(fact.object_class),
        )

    # -- per-rule query compilation -----------------------------------------------

    def _body_plan(self, spec: _RuleSpec) -> Tuple[PlanNode, List[str], Dict[str, str]]:
        """The body joins/filters of one rule; returns (plan, aliases,
        head-variable source columns)."""
        patterns = PARTITION_BODY_PATTERNS[spec.partition]
        aliases = ["T2", "T3"][: len(patterns)]
        plan: Optional[PlanNode] = None
        head_source: Dict[str, str] = {}
        shared: Dict[str, str] = {}
        join_keys: Optional[Tuple[str, str]] = None

        for index, (pattern, alias) in enumerate(zip(patterns, aliases)):
            scan: PlanNode = Scan(self._pred_table(spec.relations[index + 1]), alias)
            filters: List[Expr] = []
            for pos, var in enumerate(pattern):
                entity_col, class_col = _ARG_COLUMNS[pos]
                filters.append(
                    eq_const(f"{alias}.{class_col}", spec.class_of(var))
                )
                column = f"{alias}.{entity_col}"
                if var in ("x", "y") and var not in head_source:
                    head_source[var] = column
                if var == "z":
                    if "z" in shared:
                        join_keys = (shared["z"], column)
                    else:
                        shared["z"] = column
            filtered = Filter(scan, conj(*filters))
            if plan is None:
                plan = filtered
            else:
                assert join_keys is not None
                plan = HashJoin(plan, filtered, [join_keys[0]], [join_keys[1]])
        assert plan is not None
        return plan, aliases, head_source

    def rule_atoms_plan(self, spec: _RuleSpec) -> PlanNode:
        """Tuffy's Query 1 analogue for a *single* rule."""
        plan, _, head = self._body_plan(spec)
        return Project(plan, [(col(head["x"]), "x"), (col(head["y"]), "y")])

    def rule_factors_plan(self, spec: _RuleSpec) -> PlanNode:
        """Tuffy's Query 2 analogue for a single rule."""
        plan, aliases, head = self._body_plan(spec)
        head_scan = Scan(self._pred_table(spec.relations[0]), "T1")
        head_filter = Filter(
            head_scan,
            And(
                eq_const("T1.C1", spec.classes[0]),
                eq_const("T1.C2", spec.classes[1]),
            ),
        )
        plan = HashJoin(
            plan,
            head_filter,
            [head["x"], head["y"]],
            ["T1.x", "T1.y"],
        )
        outputs = [(col("T1.I"), "I1")]
        for slot, alias in enumerate(aliases):
            outputs.append((col(f"{alias}.I"), f"I{slot + 2}"))
        if len(aliases) == 1:
            outputs.append((const(None), "I3"))
        outputs.append((const(spec.weight), "w"))
        return Project(plan, outputs)

    # -- grounding ------------------------------------------------------------------

    def ground_atoms_iteration(self, iteration: int) -> IterationStats:
        """One iteration: run every rule's query against the iteration-
        start snapshot, then insert.

        Inserts are buffered until all queries of the iteration ran so
        Tuffy-T derives exactly what ProbKB derives per iteration (the
        paper: "both Tuffy and ProbKB systems need to iterate the same
        times").  There is still one insertion statement per producing
        rule — the paper calls out Tuffy's 30,912 insertions explicitly.
        """
        start = self.db.elapsed_seconds
        derived = 0
        new_facts = 0
        pending: List[Tuple[int, List[Row]]] = []
        for spec in self.rules:
            result = self.db.query(self.rule_atoms_plan(spec))
            derived += len(result)
            fresh: List[Row] = []
            head_relation, head_c1, head_c2 = (
                spec.relations[0],
                spec.classes[0],
                spec.classes[1],
            )
            for x, y in result.rows:
                key = (head_relation, x, head_c1, y, head_c2)
                if key in self._fact_keys:
                    continue
                self._fact_keys.add(key)
                fresh.append((self._next_fact_id, x, head_c1, y, head_c2, None))
                self._next_fact_id += 1
            if fresh:
                pending.append((head_relation, fresh))
        for head_relation, fresh in pending:
            self.db.insert_rows(self._pred_table(head_relation), fresh)
            new_facts += len(fresh)
        return IterationStats(
            iteration=iteration,
            derived_rows=derived,
            new_facts=new_facts,
            removed_facts=0,
            seconds=self.db.elapsed_seconds - start,
            fact_count=len(self._fact_keys),
        )

    def ground_atoms(
        self, max_iterations: Optional[int] = None
    ) -> Tuple[List[IterationStats], bool]:
        check_iteration_cap(max_iterations)
        cap = max_iterations if max_iterations is not None else DEFAULT_MAX_ITERATIONS
        iterations: List[IterationStats] = []
        converged = False
        for number in range(1, cap + 1):
            stats = self.ground_atoms_iteration(number)
            iterations.append(stats)
            if stats.new_facts == 0:
                converged = True
                break
        return iterations, converged

    def ground_factors(self) -> Tuple[int, float]:
        start = self.db.elapsed_seconds
        inserted = 0
        for spec in self.rules:
            result = self.db.query(self.rule_factors_plan(spec))
            if result.rows:
                inserted += self.db.insert_rows("TF", result.rows)
        # singleton factors, one query per predicate table
        for table_name in sorted(self.db.tables):
            if not table_name.startswith("pred_"):
                continue
            plan = Project(
                Filter(Scan(table_name, "T"), IsNull(col("T.w"), negated=True)),
                [
                    (col("T.I"), "I1"),
                    (const(None), "I2"),
                    (const(None), "I3"),
                    (col("T.w"), "w"),
                ],
            )
            result = self.db.query(plan)
            if result.rows:
                inserted += self.db.insert_rows("TF", result.rows)
        return inserted, self.db.elapsed_seconds - start

    def run(self, max_iterations: Optional[int] = None) -> GroundingResult:
        outcome = GroundingResult()
        outcome.iterations, outcome.converged = self.ground_atoms(max_iterations)
        outcome.factors, outcome.factor_seconds = self.ground_factors()
        return outcome

    # -- introspection -----------------------------------------------------------------

    def fact_count(self) -> int:
        return len(self._fact_keys)

    def all_facts(self) -> List[Fact]:
        """Decode every stored fact (for parity checks against ProbKB)."""
        facts = []
        for table_name, table in self.db.tables.items():
            if not table_name.startswith("pred_"):
                continue
            relation_id = int(table_name.split("_", 1)[1])
            relation = self.relations.name(relation_id)
            for row in table.rows:
                _, x, c1, y, c2, weight = row
                facts.append(
                    Fact(
                        relation=relation,
                        subject=self.entities.name(x),
                        subject_class=self.classes.name(c1),
                        object=self.entities.name(y),
                        object_class=self.classes.name(c2),
                        weight=weight,
                    )
                )
        return facts

    @property
    def elapsed_seconds(self) -> float:
        return self.db.elapsed_seconds
