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

from ..relational import PlanNode, Project, Scan, TableSchema, col, schema
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
#: the facts merged in the previous iteration (semi-naive grounding)
TDELTA_SCHEMA = schema(
    "TDelta", "R:int", "x:int", "C1:int", "y:int", "C2:int",
    unique_key=FACT_KEY_COLUMNS,
)
#: staging for incrementally added evidence (weighted, unlike TNew)
TEV_SCHEMA = schema(
    "TEv", "R:int", "x:int", "C1:int", "y:int", "C2:int", "w:float",
    unique_key=FACT_KEY_COLUMNS,
)
#: full (id-bearing) copies of every fact merged while delta capture is
#: active — the seed relation for incremental factor grounding
#: (:mod:`repro.delta`); accumulates across the iterations of one flush
TDACC_SCHEMA = schema(
    "TDAcc", "I:int", "R:int", "x:int", "C1:int", "y:int", "C2:int", "w:float"
)
#: scratch for one merge statement: ids are assigned here first, then the
#: rows flow unchanged into TΠ and (when capturing) TDAcc
TDCUR_SCHEMA = schema(
    "TDCur", "I:int", "R:int", "x:int", "C1:int", "y:int", "C2:int", "w:float"
)
#: staging for one partition's incremental factors: the delta-join
#: variants overlap when several participants are new, and the unique
#: key removes exactly that overlap (within a partition Query 2-i output
#: is duplicate-free — Proposition 1 — so nothing legitimate collides)
TFNEW_SCHEMA = schema(
    "TFNew", "I1:int", "I2:int", "I3:int", "w:float",
    unique_key=("I1", "I2", "I3", "w"),
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
    """Schema of MLN table M_i (identifier tuples + weight)."""
    if partition in (1, 2):
        return schema(
            f"M{partition}", "R1:int", "R2:int", "C1:int", "C2:int", "w:float"
        )
    return schema(
        f"M{partition}",
        "R1:int",
        "R2:int",
        "R3:int",
        "C1:int",
        "C2:int",
        "C3:int",
        "w:float",
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

    def rows(self) -> List[Tuple[int, str]]:
        return list(enumerate(self._name_of))


class RelationalKB:
    """A knowledge base loaded into a backend under the relational model."""

    def __init__(self, kb: KnowledgeBase, backend: Backend) -> None:
        self.kb = kb
        self.backend = backend
        self.entities = Dictionary()
        self.classes = Dictionary()
        self.relations = Dictionary()
        self._next_fact_id = 0
        self._capture_delta = False
        self.nonempty_partitions: List[int] = []
        #: identifier tuples already stored per partition — Proposition 1
        #: requires the M_i duplicate-free, both at bulkload and across
        #: later :meth:`add_rules` batches
        self._mln_seen: Dict[int, Set[Row]] = {i: set() for i in PARTITION_INDEXES}
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
            row = self._mln_row(classified)
            # Proposition 1 requires M_i duplicate-free
            if row in self._mln_seen[classified.partition]:
                continue
            self._mln_seen[classified.partition].add(row)
            mln_rows[classified.partition].append(row)

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
        backend.create_table(TDELTA_SCHEMA, dist_keys=["x"])
        backend.create_table(TEV_SCHEMA, dist_keys=["x"])
        backend.create_table(TDACC_SCHEMA, dist_keys=["I"])
        backend.create_table(TDCUR_SCHEMA, dist_keys=["I"])
        backend.create_table(TFNEW_SCHEMA, dist_keys=["I1"])
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
        # iteration 1 of semi-naive grounding must see every base fact
        backend.bulkload("TDelta", [row[1:6] for row in tp_rows])
        backend.bulkload("FC", fc_rows)
        for partition in PARTITION_INDEXES:
            backend.bulkload(f"M{partition}", mln_rows[partition])
        self.nonempty_partitions = [
            i for i in PARTITION_INDEXES if mln_rows[i]
        ]
        backend.create_tpi_views()

        return LoadReport(
            facts=len(tp_rows),
            rules_by_partition={i: len(mln_rows[i]) for i in PARTITION_INDEXES},
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

    def stage_candidates(self, plan: PlanNode) -> int:
        """INSERT INTO TNew SELECT (guarded candidates) — one statement
        per partition; TNew's unique key dedups across partitions."""
        return self.backend.insert_from("TNew", self.guard_candidates(plan))

    def merge_staged(self) -> int:
        """TΠ ← TΠ ∪ TNew, assigning fact ids from the sequence.

        The genuinely-new rows are materialized into TDelta first (they
        are exactly what the next semi-naive iteration must join), then
        flow from there into TΠ.  Inferred facts get NULL weight until
        marginal inference fills them in (Section 4.3).
        """
        self.backend.truncate("TDelta")
        self.backend.insert_from(
            "TDelta", self.guard_candidates(Scan("TNew", "N"))
        )
        if self._capture_delta:
            return self._merge_with_capture(Scan("TDelta", "D"), pad_nulls=1)
        inserted, self._next_fact_id = self.backend.insert_from_with_ids(
            "TP", Scan("TDelta", "D"), self._next_fact_id, pad_nulls=1
        )
        return inserted

    def add_evidence(self, facts: Iterable["Fact"]) -> int:
        """Incrementally add weighted evidence facts to TΠ.

        New facts (per the usual anti-join guard) keep their extraction
        weights and become the semi-naive delta, so a follow-up delta
        grounding derives exactly their consequences.  Returns the
        number of genuinely new facts.
        """
        rows: List[Row] = []
        for fact in facts:
            rows.append(self.encode_fact_key(fact) + (fact.weight,))
        self.backend.truncate("TEv")
        self.backend.insert_rows("TEv", rows)
        guarded = self.guard_candidates(Scan("TEv", "E"))
        self.backend.truncate("TDelta")
        self.backend.insert_from(
            "TDelta",
            Project(
                guarded,
                [(col(f"E.{c}"), c) for c in FACT_KEY_COLUMNS],
            ),
        )
        if self._capture_delta:
            return self._merge_with_capture(guarded, pad_nulls=0)
        inserted, self._next_fact_id = self.backend.insert_from_with_ids(
            "TP", guarded, self._next_fact_id, pad_nulls=0
        )
        return inserted

    # -- delta capture (incremental factor grounding) ------------------------------

    def begin_delta_capture(self) -> None:
        """Start accumulating every merged fact — with its id — in TDAcc.

        :class:`repro.delta.DeltaGrounder` wraps one flush's grounding in
        a capture window; at the end TDAcc holds exactly the facts the
        flush added to TΠ, which is the seed relation for the
        incremental Query 2-i variants.
        """
        self.backend.truncate("TDAcc")
        self._capture_delta = True

    def end_delta_capture(self) -> None:
        self._capture_delta = False

    def delta_capture_rows(self) -> List[Row]:
        """The captured (I, R, x, C1, y, C2, w) rows of the current window."""
        return self.backend.query(Scan("TDAcc", "D")).rows

    def _merge_with_capture(self, plan: PlanNode, pad_nulls: int) -> int:
        """Merge new facts into TΠ via the TDCur scratch table so their
        id-bearing rows can also be appended to TDAcc — the plan runs
        once, keeping id assignment identical to the direct merge."""
        self.backend.truncate("TDCur")
        inserted, self._next_fact_id = self.backend.insert_from_with_ids(
            "TDCur", plan, self._next_fact_id, pad_nulls=pad_nulls
        )
        self.backend.insert_from("TP", Scan("TDCur", "D"))
        self.backend.insert_from("TDAcc", Scan("TDCur", "D"))
        return inserted

    def add_rules(self, rules: Sequence[HornClause]) -> int:
        """Classify new rules and merge them into the MLN tables M1-M6.

        Identifier tuples already present (from the bulkload or an
        earlier batch) are dropped so the M_i stay duplicate-free
        (Proposition 1).  Dictionary tables gain rows for any relation
        or class name the new rules introduce.  Returns the number of
        genuinely new MLN rows stored.
        """
        # classify the whole batch first: a rule that fits no partition
        # must raise before any id is minted or any row marked as seen
        batch = [
            self._classify(rule, rule_index)
            for rule_index, rule in enumerate(rules)
        ]
        relations_before = len(self.relations)
        classes_before = len(self.classes)
        staged: Dict[int, List[Row]] = {}
        for classified in batch:
            row = self._mln_row(classified)
            if row in self._mln_seen[classified.partition]:
                continue
            self._mln_seen[classified.partition].add(row)
            staged.setdefault(classified.partition, []).append(row)
        # keep DR/DC consistent with the dictionary objects: encoding the
        # new rules may have minted fresh relation/class ids
        new_relations = self.relations.rows()[relations_before:]
        if new_relations:
            self.backend.insert_rows("DR", new_relations)
        new_classes = self.classes.rows()[classes_before:]
        if new_classes:
            self.backend.insert_rows("DC", new_classes)
        inserted = 0
        for partition in sorted(staged):
            inserted += self.backend.insert_rows(
                f"M{partition}", staged[partition]
            )
            if partition not in self.nonempty_partitions:
                self.nonempty_partitions.append(partition)
        self.nonempty_partitions.sort()
        return inserted

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
    if replace:
        return backend.insert_rows("TProb", rows)
    if not rows:
        return 0
    # upsert through a scratch table: delete the refreshed ids, then
    # re-insert — both sides stay inside the engine
    if not backend.has_table("TProbNew"):
        backend.create_table(schema("TProbNew", "I:int", "p:float"), dist_keys=["I"])
    backend.truncate("TProbNew")
    backend.insert_rows("TProbNew", rows)
    backend.delete_in(
        "TProb", ["I"], Project(Scan("TProbNew", "N"), [(col("N.I"), "I")])
    )
    return backend.insert_from("TProb", Scan("TProbNew", "N"))
