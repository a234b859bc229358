"""Randomized check of the stored tables' key indexes.

A seeded stream of writes — appends (some with keys far outside the
stored ranges, which makes an index re-encode), unique-key inserts,
``delete_in`` and ``truncate`` — is interleaved with AntiJoin and
HashJoin statements that have a bare scan on one side or both.  The
same stream runs against a reference: a single-node ``Database`` whose
statements run on the row ``Executor`` and whose writes run with
:func:`~repro.relational.columnar.key_index` switched off (the
re-encoding path).  On ``Database`` rows, row order, stored tables and
``clock.snapshot()`` must equal the reference's.  On serial
``MPPDatabase`` (1 and 3 segments) they must equal an index-free twin's
shard by shard and clock by clock, and the reference's as multisets.
The matrix runs over typed and list input columns.
"""

import gc
import random
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.mpp import HashDistribution, MPPDatabase, RandomDistribution, ReplicatedDistribution
from repro.relational import ColumnBatch, Database, HashJoin, Project, Scan, col, columnar, schema
from repro.relational.plan import AntiJoin
from repro.relational.table import Table

from .rowref import run_query

SEED = 20261016
STEPS = 120

SCHEMAS = {
    "F": schema("F", "a:int", "b:int", "v:int", unique_key=["a", "b"]),
    "G": schema("G", "a:int", "b:int", "w:int"),
    "K": schema("K", "a:int", "b:int"),
}
POLICIES = {
    "F": lambda: HashDistribution(["a"]),
    "G": RandomDistribution,  # a round-robin counter per table
    "K": ReplicatedDistribution,
}


@contextmanager
def unindexed():
    """Every kernel takes its re-encoding path."""
    real = columnar.key_index
    columnar.key_index = lambda batch, positions: None
    try:
        yield
    finally:
        columnar.key_index = real


def make_db(nseg):
    if nseg is None:
        db = Database("idx")
        for table_schema in SCHEMAS.values():
            db.create_table(table_schema)
        return db
    db = MPPDatabase(nseg=nseg)
    for name, table_schema in SCHEMAS.items():
        db.create_table(table_schema, POLICIES[name]())
    return db


def stored(db, name):
    table = db.table(name)
    return getattr(table, "parts", [table])


def as_f(alias, payload):
    return Project(
        Scan("G", alias),
        [(col(f"{alias}.a"), "a"), (col(f"{alias}.b"), "b"), (col(f"{alias}.{payload}"), "v")],
    )


STATEMENTS = {
    "guard": lambda: AntiJoin(Scan("G", "g"), Scan("F", "f"), ["g.a", "g.b"], ["f.a", "f.b"]),
    "guard_of_plan": lambda: AntiJoin(as_f("g", "w"), Scan("F", "f"), ["a", "b"], ["f.a", "f.b"]),
    "anti_left_scan": lambda: AntiJoin(
        Scan("F", "f"), Project(Scan("K", "k"), [(col("k.a"), "a")]), ["f.a"], ["a"]
    ),
    "join_build_scan": lambda: HashJoin(Scan("K", "k"), Scan("F", "f"), ["k.a"], ["f.a"]),
    "join_probe_scan": lambda: HashJoin(
        Project(Scan("K", "k"), [(col("k.a"), "a")]), Scan("F", "f"), ["a"], ["f.a"]
    ),
    "join_two_keys": lambda: HashJoin(
        Scan("F", "f"), Scan("G", "g"), ["f.a", "f.b"], ["g.a", "g.b"]
    ),
    "join_of_plan": lambda: HashJoin(
        Project(Scan("K", "k"), [(col("k.b"), "b")]), Scan("G", "g"), ["b"], ["g.b"]
    ),
}


def random_key(rng, nullable):
    roll = rng.random()
    if roll < 0.02:  # outside the ranges: some wrap onto in-range codes
        return rng.choice([rng.randint(15, 60), -rng.randint(15, 60), 2 ** 40])
    if nullable and roll < 0.05:
        return None
    return rng.randint(0, 6)


def random_rows(rng, width, nullable=False):
    """Rows whose payload is a function of their key, so which duplicate
    a unique key keeps cannot depend on how MPP orders a statement's
    result."""
    keys = [
        (random_key(rng, nullable), random_key(rng, nullable))
        for _ in range(rng.randint(0, 24))
    ]
    return [key + (3 * (key[0] or 0) - (key[1] or 0),) * (width - 2) for key in keys]


def random_op(rng):
    """A write as a function of the database, or a statement's plan."""
    kind = rng.choice(
        ["insert_f", "insert_g", "insert_k", "insert_from", "delete_f", "delete_g",
         "truncate", "query", "query", "query"]
    )
    if kind in ("insert_f", "insert_g", "insert_k"):
        name = kind[-1].upper()
        rows = random_rows(rng, len(SCHEMAS[name]), nullable=name == "G")
        return lambda db: db.insert_rows(name, rows)
    if kind == "insert_from":
        return lambda db: db.insert_from("F", as_f("g", "w"))
    if kind == "delete_f":
        keys = Project(Scan("K", "k"), [(col("k.a"), "a"), (col("k.b"), "b")])
        return lambda db: db.delete_in("F", ["a", "b"], keys)
    if kind == "delete_g":
        keys = Project(Scan("K", "k"), [(col("k.a"), "a")])
        return lambda db: db.delete_in("G", ["a"], keys)
    if kind == "truncate":
        name = rng.choice(sorted(SCHEMAS))
        return lambda db: db.truncate(name)
    return STATEMENTS[rng.choice(sorted(STATEMENTS))]()


def clocks(db):
    if isinstance(db, Database):
        return [db.clock.snapshot()]
    return [clock.snapshot() for clock in db.segment_clocks] + [db.master_clock.snapshot()]


def tables(db):
    return {name: [part.rows for part in stored(db, name)] for name in SCHEMAS}


def multiset(result):
    return Counter(result) if isinstance(result, list) else result


@pytest.mark.parametrize("nseg", [None, 1, 3], ids=["single", "mpp1", "mpp3"])
def test_probes_match_the_reencoding_path_and_the_row_engine(list_columns, nseg):
    rng = random.Random(SEED + (nseg or 0))
    reference, sut = make_db(None), make_db(nseg)
    twin = None if nseg is None else make_db(nseg)
    indexed = 0
    for _ in range(STEPS):
        op = random_op(rng)
        before = {
            name: [weakref.ref(part.column_batch()) for part in stored(sut, name)]
            for name in SCHEMAS
        }
        if callable(op):
            got = op(sut)
            with unindexed():
                want = op(reference)
                twin_got = None if twin is None else op(twin)
        else:
            got = sut.query(op).rows
            with unindexed():
                want = run_query(reference, op, "rows").rows
                twin_got = None if twin is None else twin.query(op).rows
        if twin is None:
            assert got == want
            assert tables(sut) == tables(reference)
            assert clocks(sut) == clocks(reference)
        else:
            assert got == twin_got
            assert multiset(got) == multiset(want)
            assert tables(sut) == tables(twin)
            assert clocks(sut) == clocks(twin)
        if callable(op):  # a batch a write replaced is garbage: no index pins it
            gc.collect()
            for name, refs in before.items():
                for ref, part in zip(refs, stored(sut, name)):
                    assert ref() is None or ref() is part.column_batch()
        indexed += sum(
            index is not None
            for name in SCHEMAS
            for part in stored(sut, name)
            for index in (part.column_batch().indexes or {}).values()
        )
    assert indexed > 0


# -- one binary search per probe -------------------------------------------------


@pytest.mark.parametrize("nseg", [None, 3], ids=["single", "mpp3"])
def test_the_stream_with_one_search_per_probe(list_columns, nseg, monkeypatch):
    """The stream above, with every probe of enough keys taking the
    one-search path (its crossover is far above these tables' sizes)."""
    monkeypatch.setattr(columnar, "_ONE_SEARCH_MIN_KEYS", 1)
    test_probes_match_the_reencoding_path_and_the_row_engine(list_columns, nseg)


def two_searches(codes, keys):
    return codes.searchsorted(keys, "left"), codes.searchsorted(keys, "right")


def assert_bounds(found, codes, keys):
    lo, hi = found
    want_lo, want_hi = two_searches(codes, keys)
    assert lo.tolist() == want_lo.tolist()
    assert hi.tolist() == want_hi.tolist()


@pytest.mark.parametrize("min_keys", [1, columnar._ONE_SEARCH_MIN_KEYS])
def test_one_search_bounds_equal_two_searches(min_keys, monkeypatch):
    """Random sorted codes with duplicates, an empty index, probes that
    miss (-1 is what ``encode`` gives a key outside the ranges) and
    probes of every size, the runs found by the first probe that needs
    them and reused by the rest."""
    monkeypatch.setattr(columnar, "_ONE_SEARCH_MIN_KEYS", min_keys)
    rng = np.random.default_rng(SEED)
    for ncodes in (0, 1, 7, 300, 5000):
        span = ncodes // 3 + 2
        codes = np.sort(rng.integers(0, span, ncodes))
        index = columnar.KeyIndex((0,), (span,), codes, np.arange(ncodes))
        for nkeys in (0, 1, 40, 2000, 20000, 3):
            keys = rng.integers(-1, span + 2, nkeys)
            assert_bounds(index.runs(keys), codes, keys)


def test_one_search_after_merged_appends(monkeypatch):
    """Each append merges the stored index into a new one, which finds
    its own runs on its first probe."""
    monkeypatch.setattr(columnar, "_ONE_SEARCH_MIN_KEYS", 1)
    rng = random.Random(SEED)
    table = Table(SCHEMAS["K"])
    table.insert([(rng.randrange(20), rng.randrange(5)) for _ in range(200)])
    for step in range(8):
        stored = table.column_batch()
        index = columnar.key_index(stored, (0, 1))
        if step:
            assert index is merged
        for nkeys in (0, 2, 150):
            probe = ColumnBatch.from_rows(
                ["a", "b"], [(rng.randrange(-100, 120), rng.randrange(6)) for _ in range(nkeys)]
            )
            assert_bounds(index.lookup(probe, (0, 1)), index.codes, index.encode(probe, (0, 1)))
        table.insert([(rng.randrange(20), rng.randrange(5)) for _ in range(50)])
        merged = table.column_batch().indexes[(0, 1)]
        assert merged is not None and merged is not index
