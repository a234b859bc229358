"""The relational model for probabilistic KBs (Section 4.2).

Maps Γ = (E, C, R, Π, H, Ω) onto database tables:

* dictionary tables ``DE``/``DC``/``DR`` encode strings as integer ids
  "to avoid string comparison during joins" (Section 4.2);
* ``TC(C, e)`` — class membership (Definition 2);
* ``TR(R, C1, C2)`` — relation signatures (Definition 3);
* ``TP(I, R, x, C1, y, C2, w)`` — the single facts table TΠ
  (Definition 4; C1/C2 are denormalized copies of TC/TR so batch rule
  application never joins them);
* ``M1..M6`` — one MLN table per structural-equivalence partition
  (Definition 6);
* ``FC(R, arg, deg)`` — functional constraints TΩ (Definition 11);
* ``TF(I1, I2, I3, w)`` — the ground factor table TΦ (Definition 7),
  bag semantics.

Fact identity (set-union semantics for TΠ) is the key (R, x, C1, y, C2).
New-fact detection and id assignment happen master-side in this class,
which keeps deduplication correct on every backend regardless of how TΠ
is physically distributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..relational import PlanNode, Scan, TableSchema, UnionAll, Values, schema
from ..relational.types import Row
from .backends import Backend
from .clauses import (
    PARTITION_INDEXES,
    ClassifiedClause,
    ClauseError,
    HornClause,
    classify_clause,
    partition_patterns_text,
)
from .model import Fact, KnowledgeBase
from .sqlgen import id_range

# -- table schemas (shared by all backends) -----------------------------------

TP_SCHEMA = schema("TP", "I:int", "R:int", "x:int", "C1:int", "y:int", "C2:int", "w:float")
#: staging table for each iteration's candidate facts (dedup by key)
FACT_KEY_COLUMNS = ("R", "x", "C1", "y", "C2")
TNEW_SCHEMA = schema(
    "TNew", "R:int", "x:int", "C1:int", "y:int", "C2:int",
    unique_key=FACT_KEY_COLUMNS,
)
#: graveyard of constraint-deleted fact keys — anti-joined during the
#: merge so removed errors are not simply re-derived next iteration
TDEL_SCHEMA = schema(
    "TDel", "R:int", "x:int", "C1:int", "y:int", "C2:int",
    unique_key=FACT_KEY_COLUMNS,
)
#: staging for incrementally added evidence (weighted, unlike TNew)
TEV_SCHEMA = schema(
    "TEv", "R:int", "x:int", "C1:int", "y:int", "C2:int", "w:float",
    unique_key=FACT_KEY_COLUMNS,
)
TC_SCHEMA = schema("TC", "C:int", "e:int")
TR_SCHEMA = schema("TR", "R:int", "C1:int", "C2:int")
FC_SCHEMA = schema("FC", "R:int", "arg:int", "deg:int")
TF_SCHEMA = schema("TF", "I1:int", "I2:int", "I3:int", "w:float")
#: materialized marginals (Section 2.2): one probability per fact id
TPROB_SCHEMA = schema("TProb", "I:int", "p:float", unique_key=["I"])
DE_SCHEMA = schema("DE", "id:int", "name:text")
DC_SCHEMA = schema("DC", "id:int", "name:text")
DR_SCHEMA = schema("DR", "id:int", "name:text")


def mln_schema(partition: int) -> TableSchema:
    """Schema of MLN table M_i (identifier tuples + weight).  The whole
    row is the unique key: Proposition 1 requires the M_i duplicate-free,
    at bulkload and across later :meth:`RelationalKB.add_rules` batches."""
    atoms = range(1, 3 if partition in (1, 2) else 4)
    ids = [f"R{i}" for i in atoms] + [f"C{i}" for i in atoms]
    return schema(
        f"M{partition}", *(f"{name}:int" for name in ids), "w:float",
        unique_key=ids + ["w"],
    )


FactKey = Tuple[int, int, int, int, int]  # (R, x, C1, y, C2) as ids


@dataclass
class LoadReport:
    """What the initial bulkload stored."""

    facts: int
    rules_by_partition: Dict[int, int]
    constraints: int
    classes: int
    relations: int
    entities: int


class Dictionary:
    """A string <-> dense integer id dictionary (the DX tables)."""

    def __init__(self) -> None:
        self._id_of: Dict[str, int] = {}
        self._name_of: List[str] = []

    def id(self, name: str) -> int:
        ident = self._id_of.get(name)
        if ident is None:
            ident = len(self._name_of)
            self._id_of[name] = ident
            self._name_of.append(name)
        return ident

    def lookup(self, name: str) -> Optional[int]:
        return self._id_of.get(name)

    def name(self, ident: int) -> str:
        return self._name_of[ident]

    def __len__(self) -> int:
        return len(self._name_of)

    def rows(self, start: int = 0) -> List[Tuple[int, str]]:
        """``(id, name)`` pairs of the ids from ``start`` on."""
        return list(enumerate(self._name_of[start:], start))


class RelationalKB:
    """A knowledge base loaded into a backend under the relational model."""

    def __init__(self, kb: KnowledgeBase, backend: Backend) -> None:
        self.kb = kb
        self.backend = backend
        self.entities = Dictionary()
        self.classes = Dictionary()
        self.relations = Dictionary()
        self._next_fact_id = 0
        #: the id the last merge (or evidence batch) started at: the
        #: facts it added and Query 3 kept are TΠ's rows with
        #: ``I >= delta_start``, the semi-naive delta.  0 after the load,
        #: so iteration 1 joins every base fact.
        self.delta_start = 0
        self.load_report = self._load()

    def _classify(self, rule: HornClause, rule_index: int) -> ClassifiedClause:
        """Classify a rule for loading; on failure, re-raise with the
        rule named, the supported partition shapes spelled out, and a
        pointer at the pre-flight analyzer (instead of the bare
        ClauseError that used to surface from deep inside the load)."""
        try:
            return classify_clause(rule)
        except ClauseError as error:
            raise ClauseError(
                f"rule #{rule_index} cannot be loaded into the MLN "
                f"partition tables: {error}. Supported shapes (Definition "
                f"6): {partition_patterns_text()}. Run `repro analyze` "
                f"for a full pre-flight report."
            ) from error

    def _mln_row(self, classified: ClassifiedClause) -> Row:
        return (
            tuple(self.relations.id(r) for r in classified.relations)
            + tuple(self.classes.id(c) for c in classified.classes)
            + (classified.weight,)
        )

    # -- loading -----------------------------------------------------------------

    def _load(self) -> LoadReport:
        backend = self.backend
        kb = self.kb

        # dictionaries
        class_rows = [(self.classes.id(name), name) for name in sorted(kb.classes)]
        relation_rows = [
            (self.relations.id(name), name) for name in sorted(kb.relations)
        ]
        entity_rows = [
            (self.entities.id(name), name) for name in sorted(kb.entities)
        ]

        # TC / TR
        tc_rows = [
            (self.classes.id(class_name), self.entities.id(entity))
            for class_name, members in kb.classes.items()
            for entity in sorted(members)
        ]
        tr_rows = [
            (
                self.relations.id(rel.name),
                self.classes.id(rel.domain),
                self.classes.id(rel.range),
            )
            for rel in kb.relations.values()
        ]

        # TΠ
        tp_rows: List[Row] = []
        fact_keys: Set[FactKey] = set()
        for fact in kb.facts:
            key = self.encode_fact_key(fact)
            if key in fact_keys:
                continue
            fact_keys.add(key)
            tp_rows.append((self._next_fact_id,) + key + (fact.weight,))
            self._next_fact_id += 1

        # MLN tables
        mln_rows: Dict[int, List[Row]] = {i: [] for i in PARTITION_INDEXES}
        for rule_index, rule in enumerate(kb.rules):
            classified = self._classify(rule, rule_index)
            mln_rows[classified.partition].append(self._mln_row(classified))

        # TΩ
        fc_rows = [
            (self.relations.id(c.relation), c.arg, c.degree)
            for c in kb.constraints
        ]

        # create + bulkload.  TΠ is distributed by its id column I (the
        # Greenplum default of "first column"): without the
        # redistributed views every batch join over TΠ must then move
        # data — exactly the contrast Section 4.4 exploits.
        backend.create_table(TP_SCHEMA, dist_keys=["I"])
        backend.create_table(TNEW_SCHEMA, dist_keys=["x"])
        backend.create_table(TDEL_SCHEMA, dist_keys=["x"])
        backend.create_table(TEV_SCHEMA, dist_keys=["x"])
        backend.create_table(TC_SCHEMA, dist_keys=["e"])
        backend.create_table(TR_SCHEMA, dist_keys=["R"])
        backend.create_table(TF_SCHEMA, dist_keys=["I1"])
        for dictionary_schema in (DE_SCHEMA, DC_SCHEMA, DR_SCHEMA):
            backend.create_table(dictionary_schema, dist_keys=["id"])
        # MLN and constraint tables are small: replicate them so rule
        # application never ships them between segments.
        for partition in PARTITION_INDEXES:
            backend.create_table(mln_schema(partition), replicated=True)
        backend.create_table(FC_SCHEMA, replicated=True)

        backend.bulkload("DE", entity_rows)
        backend.bulkload("DC", class_rows)
        backend.bulkload("DR", relation_rows)
        backend.bulkload("TC", tc_rows)
        backend.bulkload("TR", tr_rows)
        backend.bulkload("TP", tp_rows)
        backend.bulkload("FC", fc_rows)
        # M_i's unique key drops duplicate rules (first one wins)
        rules_by_partition = {
            i: backend.bulkload(f"M{i}", mln_rows[i]) for i in PARTITION_INDEXES
        }
        backend.create_tpi_views()

        return LoadReport(
            facts=len(tp_rows),
            rules_by_partition=rules_by_partition,
            constraints=len(fc_rows),
            classes=len(class_rows),
            relations=len(relation_rows),
            entities=len(entity_rows),
        )

    # -- encoding ------------------------------------------------------------------

    def encode_fact_key(self, fact: Fact) -> FactKey:
        return (
            self.relations.id(fact.relation),
            self.entities.id(fact.subject),
            self.classes.id(fact.subject_class),
            self.entities.id(fact.object),
            self.classes.id(fact.object_class),
        )

    def decode_fact(self, row: Row) -> Fact:
        """Decode a full TP row (I, R, x, C1, y, C2, w) into a Fact."""
        _, rel, x, c1, y, c2, weight = row
        return Fact(
            relation=self.relations.name(rel),
            subject=self.entities.name(x),
            subject_class=self.classes.name(c1),
            object=self.entities.name(y),
            object_class=self.classes.name(c2),
            weight=weight,
        )

    # -- fact mutation --------------------------------------------------------------

    def guard_candidates(self, plan: PlanNode) -> PlanNode:
        """Wrap a candidate-facts plan (columns R,x,C1,y,C2) with the
        anti-joins that implement set union: drop facts already in TΠ
        and facts previously deleted by quality control (TDel).

        The existing-facts side goes through ``tpi_scan`` so that on a
        tuned MPP backend the NOT EXISTS probes the Txy view and stays
        collocated instead of re-shipping TΠ every iteration.
        """
        from ..relational.plan import AntiJoin

        left_keys = list(FACT_KEY_COLUMNS)
        existing = self.backend.tpi_scan("TOld", ["x", "y"])
        guarded = AntiJoin(
            plan,
            existing,
            left_keys,
            [f"TOld.{c}" for c in FACT_KEY_COLUMNS],
        )
        return AntiJoin(
            guarded,
            Scan("TDel", "TGone"),
            left_keys,
            [f"TGone.{c}" for c in FACT_KEY_COLUMNS],
        )

    def stage_candidates(self, plans: Sequence[PlanNode]) -> int:
        """INSERT INTO TNew SELECT the union of the candidate plans, each
        guarded on its own — one statement per round.  TNew's unique key
        dedups across plans (the first in union order wins)."""
        if not plans:
            return 0
        return self.backend.insert_from(
            "TNew", UnionAll([self.guard_candidates(plan) for plan in plans])
        )

    def merge_staged(self) -> int:
        """TΠ ← TΠ ∪ TNew, assigning fact ids from the sequence.

        The rows were guarded when staged, so they go in as they are,
        with the ids from :attr:`delta_start` on: that id range is what
        the next semi-naive iteration joins.  Inferred facts get NULL
        weight until marginal inference fills them in (Section 4.3).
        """
        self.delta_start = self._next_fact_id
        inserted, self._next_fact_id = self.backend.insert_from_with_ids(
            "TP", Scan("TNew", "N"), self._next_fact_id, pad_nulls=1,
        )
        return inserted

    def add_evidence(self, facts: Iterable["Fact"]) -> int:
        """Incrementally add weighted evidence facts to TΠ.

        New facts (per the usual anti-join guard) keep their extraction
        weights and, as the id range from :attr:`delta_start`, become
        the semi-naive delta, so a follow-up delta grounding derives
        exactly their consequences.  Names the facts introduce are added
        to DE / DC / DR.  Returns the number of genuinely new facts.
        """
        rows: List[Row] = []
        for fact in facts:
            rows.append(self.encode_fact_key(fact) + (fact.weight,))
        self._store_new_names()
        self.backend.truncate("TEv")
        self.backend.insert_rows("TEv", rows)
        self.delta_start = self._next_fact_id
        inserted, self._next_fact_id = self.backend.insert_from_with_ids(
            "TP", self.guard_candidates(Scan("TEv", "E")), self._next_fact_id,
            pad_nulls=0,
        )
        return inserted

    def add_deleted(self, facts: Iterable["Fact"]) -> int:
        """Put the facts' keys into the graveyard TDel, so no merge
        admits them (a warm start restores the one its snapshot saved).
        Names the keys introduce are added to DE / DC / DR."""
        rows = [self.encode_fact_key(fact) for fact in facts]
        self._store_new_names()
        return self.backend.insert_rows("TDel", rows)

    @property
    def next_fact_id(self) -> int:
        """The id the next merged fact gets: every TΠ row with a smaller
        id was there before it (§4.2.3: ids come from one sequence)."""
        return self._next_fact_id

    def facts_since(self, first_id: int) -> PlanNode:
        """The TΠ rows (I, R, x, C1, y, C2, w) merged at or after the
        sequence stood at ``first_id`` and still present."""
        return id_range(Scan("TP", "T"), first_id)

    def add_rules(self, rules: Sequence[HornClause]) -> int:
        """Classify new rules and merge them into the MLN tables M1-M6.

        M_i's unique key drops identifier tuples already present (from
        the bulkload or an earlier batch) so the M_i stay duplicate-free
        (Proposition 1).  Dictionary tables gain rows for any relation
        or class name the new rules introduce.  Returns the number of
        genuinely new MLN rows stored.
        """
        # classify the whole batch first: a rule that fits no partition
        # must raise before any id is minted or any row stored
        batch = [
            self._classify(rule, rule_index)
            for rule_index, rule in enumerate(rules)
        ]
        staged: Dict[int, List[Row]] = {}
        for classified in batch:
            staged.setdefault(classified.partition, []).append(
                self._mln_row(classified)
            )
        self._store_new_names()
        return sum(
            self.backend.insert_rows(f"M{partition}", staged[partition])
            for partition in sorted(staged)
        )

    @property
    def nonempty_partitions(self) -> List[int]:
        """The partitions whose M_i holds a rule, read off the tables."""
        return [i for i in PARTITION_INDEXES if self.backend.table_size(f"M{i}")]

    def _store_new_names(self) -> None:
        """Keep DE / DC / DR equal to the dictionaries: ids are dense, so
        the names minted since a table was written are the ids from its
        size on."""
        for table, dictionary in (
            ("DE", self.entities), ("DC", self.classes), ("DR", self.relations)
        ):
            stored = self.backend.table_size(table)
            if len(dictionary) > stored:
                self.backend.insert_rows(table, dictionary.rows(stored))

    # -- introspection ----------------------------------------------------------------

    def fact_count(self) -> int:
        return self.backend.table_size("TP")

    def factor_count(self) -> int:
        return self.backend.table_size("TF")


def store_marginals(
    backend: Backend, rows: Sequence[Tuple[int, float]], replace: bool = True
) -> int:
    """The one writer of TProb: ``(fact id, probability)`` rows replace
    its contents, or with ``replace=False`` only the rows of their ids.
    Returns the number of rows inserted."""
    if not backend.has_table("TProb"):
        backend.create_table(TPROB_SCHEMA, dist_keys=["I"])
    elif replace:
        backend.truncate("TProb")
    elif not rows:
        return 0
    else:
        backend.delete_in("TProb", ["I"], Values(["I"], [(i,) for i, _ in rows]))
    return backend.insert_rows("TProb", rows)
