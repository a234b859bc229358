"""Late materialisation: a join hands on row indexes, not copied columns.

From ``columnar._DEFER_MIN_ROWS`` rows on, a gather — a join's output, a
filter's, a motion piece — makes each typed column a ``DeferredColumn``:
its input column plus the input's index vector, gathered the first time
something reads it.  These tests hold that to the eager engine:

* seeded random chains of 2-4 joins over NULL-bearing int, float and
  text columns, with residuals, and a Filter / Distinct / Aggregate /
  AntiJoin / Project above them, return the row ``Executor``'s rows in
  its order and charge its ``clock.snapshot()`` — on ``Database`` and,
  as multisets, on serial ``MPPDatabase`` with 1 and 3 segments — with
  typed and list input columns, deferring at the default crossover and always;
* every output column has the kind (dtype, mask) an eager gather gives;
* a ``Project`` of k of a join's N columns gathers only those k and the
  join keys a later join encodes;
* a pickled deferred batch is no larger than its eager twin, and a table
  never stores a deferred column.
"""

import pickle
import random

import pytest

from repro.mpp import HashDistribution, MPPDatabase, RandomDistribution
from repro.relational import (
    Aggregate,
    ColumnarExecutor,
    CostClock,
    Database,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    col,
    columnar,
    schema,
)
from repro.relational.columnar import DeferredColumn, TypedColumn
from repro.relational.expr import Compare, IsNull
from repro.relational.plan import AntiJoin

from .rowref import run_query

SEED = 20261017
TABLES = ("A", "B", "C", "D")
#: what each table holds: a nullable int key, a dense int key, nullable
#: text, an int payload and a float payload
COLUMNS = ("k:int", "j:int", "lab:text", "v:int", "w:float")
NO_DEFERRAL = 10 ** 12


@pytest.fixture(params=["crossover", "always"])
def defer_from(request, monkeypatch):
    """Defer at the default crossover, then from the first row."""
    if request.param == "always":
        monkeypatch.setattr(columnar, "_DEFER_MIN_ROWS", 0)
    return request.param


def random_rows(rng, nrows, keys):
    return [
        (
            rng.choice([None, rng.randrange(keys), rng.randrange(3)]),
            rng.randrange(keys),
            rng.choice(["x", "y", None]),
            rng.randint(-20, 20),
            rng.choice([0.5, -1.25, 3.0]),
        )
        for _ in range(nrows)
    ]


def random_data(rng):
    """Small tables with few keys, so a chain's output passes the
    deferral crossover without the row reference taking long."""
    return {
        name: random_rows(rng, rng.randint(20, 70), rng.choice([3, 5, 8]))
        for name in TABLES + ("X",)
    }


def load(db, data, policy=None):
    for name, rows in data.items():
        table = schema(name, *COLUMNS)
        if policy is None:
            db.create_table(table)
        else:
            db.create_table(table, policy())
        db.bulkload(name, rows)
    return db


def random_plan(rng):
    """A chain of 2-4 joins, maybe residuals, one operator above."""
    njoins = rng.randint(2, 4)
    plan, columns = Scan("A", "a"), ["a.k", "a.j", "a.lab", "a.v", "a.w"]
    for alias, name in zip("bcd", TABLES[1 : njoins + 1]):
        left_key = rng.choice([c for c in columns if c.endswith((".k", ".j"))])
        right_key = f"{alias}.{rng.choice('kj')}"
        residual = rng.choice([
            None,
            Compare("<=", col(rng.choice(columns[1::5])), col(f"{alias}.j")),
            Compare("=", col(rng.choice(columns[2::5])), col(f"{alias}.lab")),
        ])
        right = Scan(name, alias)
        plan = HashJoin(plan, right, [left_key], [right_key], residual=residual)
        columns += [f"{alias}.{c.split(':')[0]}" for c in COLUMNS]
    kept = rng.sample(columns, rng.randint(1, 4))
    projected = Project(plan, [(col(c), c.replace(".", "_")) for c in kept])
    top = rng.choice(["filter", "distinct", "aggregate", "anti", "project"])
    if top == "filter":
        return Filter(plan, rng.choice([
            IsNull(col(rng.choice(columns)), negated=rng.random() < 0.5),
            Compare(">", col(rng.choice(columns[3::5])), col(rng.choice(columns[1::5]))),
        ]))
    if top == "distinct":
        return Distinct(projected)
    if top == "aggregate":
        value = rng.choice(columns[3::5] + columns[4::5])
        return Aggregate(
            plan,
            group_by=[rng.choice(columns)],
            aggregates=[("count", None, "n"), ("sum", value, "s"), ("min", value, "lo")],
        )
    if top == "anti":
        ints = [c for c in kept if c.endswith((".k", ".j", ".v"))] or ["a.j"]
        keyed = Project(plan, [(col(c), c.replace(".", "_")) for c in ints])
        return AntiJoin(
            keyed, Scan("X", "x"), [c.replace(".", "_") for c in ints[:1]], ["x.j"]
        )
    return projected


def kinds(batch):
    return [
        (col.values.dtype.name, col.mask is not None) if isinstance(col, TypedColumn) else "list"
        for col in batch.cols
    ]


def cases(count):
    rng = random.Random(SEED)
    return [(random_data(rng), random_plan(rng)) for _ in range(count)]


@pytest.mark.parametrize("case", range(12))
def test_join_chains_match_the_row_engine(case, defer_from, list_columns):
    data, plan = cases(12)[case]
    reference = load(Database("rows"), data)
    db = load(Database("cols"), data)
    expected = run_query(reference, plan)
    actual = db.query(plan)
    assert actual.columns == expected.columns
    assert actual.rows == expected.rows
    assert db.clock.snapshot() == reference.clock.snapshot()


@pytest.mark.parametrize("nseg", [1, 3])
@pytest.mark.parametrize("case", range(0, 12, 3))
def test_join_chains_on_serial_mpp(case, nseg, defer_from, list_columns):
    data, plan = cases(12)[case]
    expected = run_query(load(Database("rows"), data), plan)
    for policy in (lambda: HashDistribution(["j"]), RandomDistribution):
        mpp = load(MPPDatabase(nseg=nseg), data, policy)
        assert sorted(mpp.query(plan).rows, key=repr) == sorted(expected.rows, key=repr)


@pytest.mark.parametrize("case", range(12))
def test_output_columns_have_the_eager_kinds(case, monkeypatch):
    data, plan = cases(12)[case]
    db = load(Database("cols"), data)
    monkeypatch.setattr(columnar, "_DEFER_MIN_ROWS", 0)
    deferred = ColumnarExecutor(db.tables, CostClock()).run(plan)
    monkeypatch.setattr(columnar, "_DEFER_MIN_ROWS", NO_DEFERRAL)
    eager = ColumnarExecutor(db.tables, CostClock()).run(plan)
    assert kinds(deferred) == kinds(eager)
    assert deferred.to_rows() == eager.to_rows()


def wide_join(nrows=1500, ncols=8):
    """J = (L ⋈ R on k) ⋈ S on L.c1, every input ``ncols`` int columns
    wide and at least the deferral crossover long."""
    rng = random.Random(SEED)
    db = Database("wide")
    names = [f"c{i}" for i in range(ncols)]
    for table in "LRS":
        db.create_table(schema(table, "k:int", *[f"{n}:int" for n in names]))
        db.bulkload(table, [
            (i % 500, *[rng.randrange(50) for _ in names]) for i in range(nrows)
        ])
    plan = HashJoin(
        HashJoin(Scan("L", "l"), Scan("R", "r"), ["l.k"], ["r.k"]),
        Scan("S", "s"), ["l.c1"], ["s.k"],
    )
    return db, plan


def test_a_project_gathers_only_what_it_reads(monkeypatch):
    db, join = wide_join()
    stored = {
        id(column): f"{name}.{column_name}"
        for name in "LRS"
        for column_name, column in zip(
            db.table(name).schema.column_names, db.table(name).column_batch().cols
        )
    }
    gathered = []
    real = DeferredColumn.__getattr__

    def spy(column, name):
        gathered.append(stored[id(column.base)])
        return real(column, name)

    monkeypatch.setattr(DeferredColumn, "__getattr__", spy)
    kept = ["l.c3", "r.c5", "s.c0"]
    result = db.query(Project(join, [(col(c), c) for c in kept]))
    assert len(result.rows) > 0
    # the projected columns, and the outer join's left key, which the
    # second join encodes (every column here is NULL-free: no mask read)
    assert sorted(set(gathered)) == ["L.c1", "L.c3", "R.c5", "S.c0"]


def test_a_pickled_deferred_batch_ships_only_its_rows(monkeypatch):
    db, join = wide_join()
    deferred = ColumnarExecutor(db.tables, CostClock()).run(join)
    assert all(type(col) is DeferredColumn for col in deferred.cols)
    monkeypatch.setattr(columnar, "_DEFER_MIN_ROWS", NO_DEFERRAL)
    eager = ColumnarExecutor(db.tables, CostClock()).run(join)
    shipped = pickle.loads(pickle.dumps(deferred))
    assert not any(isinstance(col, DeferredColumn) for col in shipped.cols)
    assert shipped.to_rows() == eager.to_rows()
    assert len(pickle.dumps(deferred)) <= len(pickle.dumps(eager))


def test_a_table_never_stores_a_deferred_column():
    db, join = wide_join()
    db.create_table(schema("T", *[f"x{i}:int" for i in range(27)]))
    db.insert_from("T", join)
    stored = db.table("T").column_batch()
    assert stored.nrows > 0
    assert not any(isinstance(col, DeferredColumn) for col in stored.cols)
