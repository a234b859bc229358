"""Randomized differential tests: columnar vs row engine vs sqlite vs MPP.

Seeded-random tables and operator trees are executed by both engines;
results must be *bit-identical* — same rows in the same order, and the
same CostClock counters — because downstream fact-id assignment depends
on result order.  Where ``to_sql`` can express the plan, the sqlite
bridge arbitrates SQL semantics on sorted rows.  The serial MPP
database joins the matrix as one more engine: the same operators run
per segment, so across segment counts and table placements it must
return the row engine's multiset.

Runs the whole matrix twice: over the typed columns client rows become,
and over list columns (``list_columns``), so the pure-Python kernels
must not drift either.
"""

import random
from collections import Counter

import pytest

from repro.mpp import (
    HashDistribution,
    MPPDatabase,
    RandomDistribution,
    ReplicatedDistribution,
)
from repro.relational import (
    Aggregate,
    Database,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    SqliteMirror,
    UnionAll,
    Values,
    col,
    const,
    eq,
    eq_const,
    schema,
    to_sql,
)
from repro.relational.plan import AntiJoin

from .rowref import run_query

SEED = 20260809
NROWS = 120


def random_rows(rng, nrows):
    """int keys with NULLs and skew, a string column, an int payload."""
    rows = []
    for i in range(nrows):
        key = rng.choice([None, rng.randint(0, 9), rng.randint(0, 3)])
        label = rng.choice(["x", "y", "z", None])
        rows.append((key, label, rng.randint(-50, 50)))
    return rows


def build_db(rows_r, rows_s):
    db = Database("diff")
    db.create_table(schema("R", "k:int", "lab:text", "v:int"))
    db.create_table(schema("S", "k:int", "lab:text", "v:int"))
    db.bulkload("R", rows_r)
    db.bulkload("S", rows_s)
    return db


#: a FLOAT column may hold 4 and 4.0: equal keys, whatever their type
#: (each int here and its float hash apart modulo 3 unless hashed alike;
#: both first rows are floats, so the plan verifier types both keys FLOAT)
NUMBERS_A = [(4.0,), (4,), (5,), (6.0,), (7,), (-0.0,)]
NUMBERS_B = [(4.0,), (5.0,), (6,), (7.0,), (0,)]


def plan_catalog():
    """Plan factories covering every operator, NULL keys included."""
    return {
        "scan": lambda: Scan("R"),
        "filter_const": lambda: Filter(Scan("R", "r"), eq_const("r.k", 2)),
        "project": lambda: Project(
            Scan("R", "r"), [(col("r.v"), "v"), (col("r.k"), "k")]
        ),
        "join": lambda: HashJoin(
            Scan("R", "r"), Scan("S", "s"), ["r.k"], ["s.k"]
        ),
        "join_multi_key": lambda: HashJoin(
            Scan("R", "r"), Scan("S", "s"),
            ["r.k", "r.lab"], ["s.k", "s.lab"],
        ),
        "join_residual": lambda: HashJoin(
            Scan("R", "r"), Scan("S", "s"), ["r.k"], ["s.k"],
            residual=eq("r.lab", "s.lab"),
        ),
        "anti_join": lambda: AntiJoin(
            Scan("R", "r"), Scan("S", "s"), ["r.k"], ["s.k"]
        ),
        "distinct": lambda: Distinct(
            Project(Scan("R", "r"), [(col("r.k"), "k"), (col("r.lab"), "lab")])
        ),
        "aggregate": lambda: Aggregate(
            Scan("R", "r"),
            group_by=["r.k"],
            aggregates=[
                ("count", None, "n"),
                ("sum", "r.v", "total"),
                ("min", "r.v", "lo"),
                ("max", "r.v", "hi"),
            ],
        ),
        "global_agg": lambda: Aggregate(
            Scan("R", "r"),
            group_by=[],
            aggregates=[("count", None, "n"), ("sum", "r.v", "total")],
        ),
        "union_dup_heavy": lambda: UnionAll(
            [
                Project(Scan("R", "r"), [(col("r.k"), "k"), (col("r.v"), "v")]),
                Project(Scan("R", "r2"), [(col("r2.k"), "k"), (col("r2.v"), "v")]),
                Project(Scan("S", "s"), [(col("s.k"), "k"), (col("s.v"), "v")]),
            ]
        ),
        # join, then group by the key: 4 == 4.0 and 0 == -0.0 on every segment
        "equal_numbers": lambda: Aggregate(
            UnionAll([
                Project(
                    HashJoin(Values(["x"], NUMBERS_A), Values(["y"], NUMBERS_B), ["x"], ["y"]),
                    [(col("x"), "x")],
                ),
                Values(["x"], NUMBERS_B),
            ]),
            group_by=["x"],
            aggregates=[("count", None, "n")],
        ),
        "stacked": lambda: Distinct(
            Project(
                HashJoin(Scan("R", "r"), Scan("S", "s"), ["r.k"], ["s.k"]),
                [(col("r.k"), "k"), (col("s.v"), "sv")],
            )
        ),
    }


#: plans to_sql can render for the sqlite conformance leg
SQL_SAFE = (
    "filter_const", "project", "join", "join_multi_key", "distinct",
    "aggregate", "global_agg", "union_dup_heavy", "stacked",
)


class TestEngineParity:
    @pytest.mark.parametrize("name", sorted(plan_catalog()))
    def test_columnar_matches_rows_bit_identical(self, name, list_columns):
        rng = random.Random(SEED)
        rows_r = random_rows(rng, NROWS)
        rows_s = random_rows(rng, NROWS // 2)
        factory = plan_catalog()[name]

        rows_db = build_db(rows_r, rows_s)
        col_db = build_db(rows_r, rows_s)

        expected = run_query(rows_db, factory())
        actual = col_db.query(factory())
        # exact rows in exact order: fact-id assignment depends on it
        assert actual.rows == expected.rows
        assert actual.columns == expected.columns
        # identical cost accounting, counter by counter
        assert col_db.clock.snapshot() == rows_db.clock.snapshot()

    @pytest.mark.parametrize("name", SQL_SAFE)
    def test_columnar_matches_sqlite(self, name, list_columns):
        rng = random.Random(SEED + 1)
        rows_r = random_rows(rng, NROWS)
        rows_s = random_rows(rng, NROWS // 2)
        factory = plan_catalog()[name]
        db = build_db(rows_r, rows_s)
        ours = db.query(factory()).sorted_rows()
        with SqliteMirror(db) as mirror:
            theirs = mirror.run_sorted(to_sql(factory()))
        assert ours == theirs

    def test_empty_inputs(self, list_columns):
        for name, factory in plan_catalog().items():
            rows_db = build_db([], [])
            col_db = build_db([], [])
            expected = run_query(rows_db, factory())
            actual = col_db.query(factory())
            assert actual.rows == expected.rows, name
            assert col_db.clock.snapshot() == rows_db.clock.snapshot(), name

    def test_many_random_shapes(self, list_columns):
        """Fuzz loop: random data, every operator, both engines."""
        rng = random.Random(SEED + 2)
        for trial in range(8):
            rows_r = random_rows(rng, rng.randint(0, 80))
            rows_s = random_rows(rng, rng.randint(0, 40))
            for name, factory in plan_catalog().items():
                rows_db = build_db(rows_r, rows_s)
                col_db = build_db(rows_r, rows_s)
                expected = run_query(rows_db, factory())
                actual = col_db.query(factory())
                assert actual.rows == expected.rows, (trial, name)
                assert (
                    col_db.clock.snapshot() == rows_db.clock.snapshot()
                ), (trial, name)


#: where R and S live on the cluster
PLACEMENTS = {
    "hash": lambda: HashDistribution(["k"]),
    "random": RandomDistribution,
    "replicated": ReplicatedDistribution,
}

def build_mpp(nseg, placement, rows_r, rows_s):
    db = MPPDatabase(nseg=nseg)
    for name, rows in (("R", rows_r), ("S", rows_s)):
        db.create_table(
            schema(name, "k:int", "lab:text", "v:int"), PLACEMENTS[placement]()
        )
        db.bulkload(name, rows)
    return db


class TestMppParity:
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("nseg", [1, 3])
    @pytest.mark.parametrize("name", sorted(plan_catalog()))
    def test_serial_mpp_matches_rows(self, name, nseg, placement, list_columns):
        rng = random.Random(SEED + 4)
        rows_r = random_rows(rng, NROWS)
        rows_s = random_rows(rng, NROWS // 2)
        factory = plan_catalog()[name]

        rows_db = build_db(rows_r, rows_s)
        mpp = build_mpp(nseg, placement, rows_r, rows_s)
        expected = run_query(rows_db, factory())
        actual = mpp.query(factory())

        assert actual.columns == expected.columns
        assert actual.sorted_rows() == expected.sorted_rows()
        if nseg == 1:
            # one segment does exactly the single-node engine's work
            segment = mpp.segment_clocks[0].snapshot()
            single = rows_db.clock.snapshot()
            for counter in ("rows_scanned", "rows_built", "rows_probed", "rows_output"):
                assert segment[counter] == single[counter], counter


class TestDmlParity:
    """INSERT ... SELECT row order feeds fact ids: the stored table must
    number the row reference's result in the reference's order."""

    def test_insert_from_with_ids_order(self, list_columns):
        rng = random.Random(SEED + 3)
        rows_r = random_rows(rng, 60)
        rows_s = random_rows(rng, 30)
        db = build_db(rows_r, rows_s)
        db.create_table(
            schema("out", "id:int", "k:int", "v:int", unique_key=["id"])
        )
        plan = Project(
            HashJoin(Scan("R", "r"), Scan("S", "s"), ["r.k"], ["s.k"]),
            [(col("r.k"), "k"), (col("s.v"), "v")],
        )
        reference = run_query(build_db(rows_r, rows_s), plan).rows
        inserted, next_id = db.insert_from_with_ids("out", plan, 100)
        assert (inserted, next_id) == (len(reference), 100 + len(reference))
        assert db.table("out").rows == [
            (100 + offset,) + row for offset, row in enumerate(reference)
        ]

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("nseg", [1, 3])
    def test_dml_statements_single_node_vs_mpp(self, nseg, placement, list_columns):
        """The five DML statements leave the same table behind on both
        databases — contents, ids, return values, rows stored — wherever
        the target lives, with a mirror of it riding along."""
        rng = random.Random(SEED + 5)
        rows_r = random_rows(rng, NROWS)
        rows_s = random_rows(rng, NROWS // 2)
        # per-segment dedup is only global when equal keys share a segment
        key = None if placement == "random" else ["k", "lab", "v"]
        target = schema(
            "T", "id:int", "k:int", "lab:text", "v:int", "note:float", unique_key=key
        )
        single = build_db(rows_r, rows_s)
        single.create_table(target)
        mpp = build_mpp(nseg, "hash", rows_r, rows_s)
        mpp.create_table(target, PLACEMENTS[placement]())
        mpp.create_redistributed_matview("T_by_v", "T", ["v"])
        mpp.add_mirror("T", "T_by_v")
        # R and S are loaded: count what the statements below store
        single.clock.reset()
        inserted_before = mpp.work_clock.rows_inserted

        def both(statement):
            ours, theirs = statement(single), statement(mpp)
            assert ours == theirs
            assert Counter(single.table("T").rows) == Counter(mpp.table("T").all_rows())
            return ours

        loaded = [(1000 + i,) + row + (None,) for i, row in enumerate(rows_r)]
        both(lambda db: db.bulkload("T", loaded))
        both(lambda db: db.insert_from("T", Project(
            Scan("S", "s"),
            [(const(-1), "id"), (col("s.k"), "k"), (col("s.lab"), "lab"),
             (col("s.v"), "v"), (const(0.5), "note")],
        )))
        # literal rows live on one segment in their written order: both
        # databases number the same rows in the same order (a keyed T
        # rejects the first half, which it already holds)
        fresh = [(100 + i, "n", i) for i in range(15)]
        numbered = Values(["k", "lab", "v"], rows_r[:15] + fresh)
        stored, next_id = both(
            lambda db: db.insert_from_with_ids("T", numbered, 5000, pad_nulls=1)
        )
        assert next_id > 5000 and (key is None) == (stored == next_id - 5000)
        removed = both(lambda db: db.delete_in("T", ["k"], Project(
            Filter(Scan("S", "s"), eq_const("s.lab", "x")), [(col("s.k"), "k")]
        )))
        assert removed > 0 and len(single.table("T")) > 0

        view = mpp.table("T_by_v")
        assert Counter(view.all_rows()) == Counter(mpp.table("T").all_rows())
        copies = nseg if placement == "replicated" else 1
        assert (
            mpp.work_clock.rows_inserted - inserted_before
            == single.clock.rows_inserted * (copies + 1)  # + the mirror's
        )

        both(lambda db: db.truncate("T"))
        assert len(single.table("T")) == 0
        # the key set went with the rows
        both(lambda db: db.insert_rows("T", loaded[:10]))
