"""The typed column container: round trip, typed-vs-list parity, the
Python-scalars-at-the-edge rule, and "no list fallback" on the shapes
the end-to-end benchmark grounds.

A typed column (``int64`` / ``float64`` array + null mask) and a list
column are two representations of the same values; every operation of
the container must give the same rows — same values, same Python
types — whichever one it runs on.  The list twin is built from the same
inputs with every column a list (``listed``).
"""

import dataclasses
import json
import math
import pickle
import struct
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InferenceConfig, ProbKB
from repro.datasets import paper_kb
from repro.relational import (
    Aggregate,
    ColumnarExecutor,
    ColumnBatch,
    Compare,
    Database,
    Project,
    Scan,
    col,
    const,
    schema,
)
from repro.relational.columnar import TypedColumn, column_of
from repro.relational.cost import CostClock
from repro.relational.operators import aggregate_batch
from repro.relational.table import Table, batch_of_result

from .conftest import listed


def exact(value):
    """A value with its type; floats by bit pattern (NaN, -0.0)."""
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def exact_rows(rows):
    return [tuple(exact(value) for value in row) for row in rows]


ints = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([2 ** 63, -(2 ** 63) - 1, 2 ** 63 - 1, -(2 ** 63), 2 ** 53 + 1]),
)
floats = st.one_of(
    st.floats(-4, 4, allow_nan=False).map(lambda x: round(x, 1)),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308]),
)
#: one strategy per column kind: a column draws all its values from one
columns = st.sampled_from([
    st.integers(-5, 5),
    ints,
    floats,
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.none(), floats),
    st.none(),
    st.booleans(),
    st.text("ab", max_size=2),
    st.one_of(st.none(), ints, floats, st.booleans(), st.text("ab", max_size=2)),
])


@st.composite
def tables(draw):
    kinds = draw(st.lists(columns, min_size=1, max_size=4))
    nrows = draw(st.integers(0, 12))
    cols = [draw(st.lists(kind, min_size=nrows, max_size=nrows)) for kind in kinds]
    return [f"c{i}" for i in range(len(kinds))], list(zip(*cols))


@given(table=tables())
@settings(max_examples=150, deadline=None)
def test_round_trip_is_type_identical(table):
    names, rows = table
    batch = ColumnBatch.from_rows(names, rows)
    assert batch.nrows == len(rows)
    assert exact_rows(batch.to_rows()) == exact_rows(rows)
    assert exact_rows(batch.tuples(range(len(names)))) == exact_rows(rows)
    for pos, column in enumerate(batch.cols):
        assert [exact(column[row]) for row in range(len(rows))] == [
            exact(row[pos]) for row in rows
        ]


@given(table=tables(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_container_operations_agree_with_list_columns(table, data):
    names, rows = table
    picks = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=8))
    if not rows:
        picks = []
    cut = data.draw(st.integers(0, len(rows)))

    def run(make):
        batch = make(names, rows)
        head = make(names, rows[:cut])
        tail = make(names, rows[cut:])
        return {
            "gather": batch.gather(picks).to_rows(),
            "concat": ColumnBatch.concat(names, [head, tail, head]).to_rows(),
            "rename": batch.rename([n.upper() for n in names]).to_rows(),
            "pickle": pickle.loads(pickle.dumps(batch)).to_rows(),
        }

    typed = run(ColumnBatch.from_rows)
    lists = run(lambda names, rows: listed(ColumnBatch.from_rows(names, rows)))
    for operation in typed:
        assert exact_rows(typed[operation]) == exact_rows(lists[operation]), operation
    assert exact_rows(typed["gather"]) == exact_rows([rows[i] for i in picks])
    assert exact_rows(typed["concat"]) == exact_rows(rows + rows[:cut])


aggregate_values = st.one_of(st.none(), st.integers(-3, 3), st.just(2 ** 62))
aggregate_floats = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e16, -1e16, 1.5])
)


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 1), aggregate_values, aggregate_floats),
        max_size=30,
    ),
    grouped=st.booleans(),
    threshold=st.one_of(st.none(), st.integers(0, 3)),
)
@settings(max_examples=150, deadline=None)
def test_aggregates_agree_with_list_columns(rows, grouped, threshold):
    """count, count on a nullable column, min, max, sum, count_distinct,
    HAVING, empty input and the global aggregate."""
    specs = [("count", None, "n"), ("count", "v", "nv")]
    for func in ("min", "max", "sum", "count_distinct"):
        specs += [(func, "v", f"{func}_v"), (func, "f", f"{func}_f")]
    having = None if threshold is None else Compare(">", col("n"), const(threshold))

    def run(child):
        out = aggregate_batch(
            child,
            [0, 1] if grouped else [],
            specs,
            [None if name is None else child.columns.index(name) for _, name, _ in specs],
            having,
            (["g", "h"] if grouped else []) + [name for _, _, name in specs],
            CostClock(),
        )
        return out.to_rows()

    child = ColumnBatch.from_rows(["g", "h", "v", "f"], rows)
    assert exact_rows(run(child)) == exact_rows(run(listed(child)))


def test_column_kinds_are_decided_from_the_values():
    def kinds(*values):
        batch = ColumnBatch.from_rows(["c"], [(v,) for v in values])
        column = batch.cols[0]
        if not isinstance(column, TypedColumn):
            return "list"
        return column.values.dtype.name + ("+mask" if column.mask is not None else "")

    assert kinds(1, 2) == "int64"
    assert kinds(1, None) == "int64+mask"
    assert kinds(1.5, -0.0, math.inf) == "float64"
    assert kinds(None, 2.5) == "float64+mask"
    assert kinds(None, None) == "int64+mask"  # NULL has no type of its own
    assert kinds() == "int64"
    assert kinds(1, 2.0) == "list"  # an array would retype the int
    assert kinds(1, True) == "list"  # bool is not int
    assert kinds("a") == "list"
    assert kinds(2 ** 63) == "list"
    assert kinds(1.0, math.nan) == "list"  # identity is what equates NaNs


def test_null_parts_take_their_neighbours_dtype_in_concat():
    nulls = ColumnBatch.from_rows(["w"], [(None,), (None,)])
    weights = ColumnBatch.from_rows(["w"], [(0.5,)])
    merged = ColumnBatch.concat(["w"], [weights, nulls, weights])
    assert merged.cols[0].values.dtype.name == "float64"
    assert merged.to_rows() == [(0.5,), (None,), (None,), (0.5,)]
    # kinds that do not agree fall back to the values, which decide again
    mixed = ColumnBatch.concat(["w"], [weights, ColumnBatch.from_rows(["w"], [(1,)])])
    assert exact_rows(mixed.to_rows()) == exact_rows([(0.5,), (1,)])
    assert isinstance(mixed.cols[0], list)


# -- only Python scalars leave the container ---------------------------------------

SCALARS = (int, float, str, type(None))


def assert_python_scalars(value, where):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.astuple(value)
    if isinstance(value, dict):
        value = list(value.keys()) + list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            assert_python_scalars(item, where)
    else:
        assert type(value) in SCALARS, f"{type(value).__name__} {value!r} out of {where}"


def test_no_numpy_scalar_escapes_the_engine():
    db = Database()
    db.create_table(schema("t", "k:int", "w:float", "s:text", unique_key=["k"]))
    db.bulkload("t", [(1, 0.5, "a"), (2, None, "b"), (1, 9.0, "dup"), (3, 1.5, None)])
    plan = Aggregate(
        Scan("t"), ["t.k"],
        [("count", None, "n"), ("min", "t.k", "lo"), ("sum", "t.w", "total")],
    )
    table = db.table("t")
    assert_python_scalars(db.query(Scan("t")).rows, "Database.query (scan)")
    assert_python_scalars(db.query(plan).rows, "Database.query (aggregate)")
    assert_python_scalars(table.rows, "Table.rows")
    assert_python_scalars(table.project(["w", "k"]), "Table.project")
    assert_python_scalars(list(table), "iter(Table)")


def test_no_numpy_scalar_escapes_probkb_or_the_serving_layer(tmp_path):
    from repro.api import ExpansionSession
    from repro.serve import KBService, ServiceConfig, make_server
    from repro.serve.snapshot import snapshot_dict

    import threading

    session = ExpansionSession(paper_kb(), backend="single")
    session.ground()
    session.materialize_marginals(config=InferenceConfig(sweeps=30, seed=1))
    assert_python_scalars(session.all_facts(), "ProbKB.all_facts")
    assert_python_scalars(session.factor_rows(), "ProbKB.factor_rows")
    assert_python_scalars(session.query_facts(), "ProbKB.query_facts")
    assert_python_scalars(
        session.query_facts(relation="born_in"), "ProbKB.query_facts(relation)"
    )
    assert_python_scalars(snapshot_dict(session), "snapshot payload")
    with open(session.save_snapshot(str(tmp_path / "snap.json"))) as handle:
        assert json.load(handle)["facts"]

    service = KBService(session, ServiceConfig()).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        # GET /facts is the API's query endpoint
        with urllib.request.urlopen(f"http://{host}:{port}/facts", timeout=10) as response:
            assert response.status == 200  # json.dumps took every value
            body = json.loads(response.read())
        assert body["facts"]
        assert_python_scalars(body["facts"], "GET /facts body")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.stop()


# -- the benchmark's shapes never leave the typed path -------------------------------


def test_no_list_fallback_on_the_benchmark_shapes():
    """After ``ground()`` on the quarter-scale ReVerb-Sherlock KB of the
    end-to-end benchmark, every column of the fact, factor, staging and
    rule tables is typed: nothing on the grounding path decayed to a list
    (ROADMAP's ``columnar.fallback == 0``, read off the stored batches)."""
    from benchmarks.e2e.workloads import setup_reverb

    kb = setup_reverb("reverb_sc", 0, 0.25).kb
    with ProbKB(kb, backend="single") as system:
        system.ground()
        tables = system.backend.db.tables
        assert len(tables["TP"]) and len(tables["TF"]) and len(tables["FC"])
        names = ["TP", "TF", "TNew", "TDel", "FC"]
        names += [f"M{i}" for i in range(1, 7) if len(tables[f"M{i}"])]
        assert len(names) > 5
        for name in names:
            batch = tables[name].column_batch()
            listed = [
                column_name
                for column_name, column in zip(batch.columns, batch.cols)
                if not isinstance(column, TypedColumn)
            ]
            assert not listed, f"{name}: list columns {listed}"
        # NULLs ride in the mask: inferred facts carry no weight
        weights = tables["TP"].column_batch().cols[-1]
        assert weights.values.dtype.name == "float64" and weights.mask is not None


def test_unique_key_table_needs_no_key_set():
    table = Table(schema("t", "a:int", "b:int", unique_key=["a"]))
    assert table.insert([(1, 1), (2, 2), (1, 3)]) == 2
    assert table.delete_in(["a"], ColumnBatch.from_rows(["a"], [(1,), (7,)])) == 1
    assert table.insert([(1, 9), (2, 9)]) == 1  # the deleted key is free again
    assert table.rows == [(2, 2), (1, 9)]
    assert not hasattr(table, "_key_set")


# -- constants, id sequences and NULL padding are built as arrays -----------------


def kind(column):
    """What decides a column's behaviour: list or dtype, mask, values."""
    if not isinstance(column, TypedColumn):
        return ("list", exact_rows([tuple(column)]))
    mask = None if column.mask is None else column.mask.tolist()
    return (column.values.dtype.name, mask, exact_rows([tuple(column.tolist())]))


@pytest.mark.parametrize(
    "value",
    [None, 0, -(2 ** 63), 2 ** 63 - 1, 2 ** 63, True, 1.5, math.nan, "a"],
    ids=repr,
)
@pytest.mark.parametrize("nrows", [0, 1, 4])
def test_a_projected_constant_is_the_kind_column_of_gives(value, nrows, list_columns):
    db = Database("const")
    db.create_table(schema("R", "v:int"))
    db.bulkload("R", [(i,) for i in range(nrows)])
    plan = Project(Scan("R", "r"), [(const(value), "c")])
    (column,) = ColumnarExecutor(db.tables, CostClock()).run(plan).cols
    assert kind(column) == kind(column_of([value] * nrows))


@pytest.mark.parametrize("next_id", [None, 0, -(2 ** 63), 2 ** 63 - 3, 2 ** 63 - 2, 2 ** 63])
@pytest.mark.parametrize("nrows", [0, 2])
def test_ids_and_null_padding_are_the_kinds_column_of_gives(next_id, nrows, list_columns):
    names = ["v", "p", "q"] if next_id is None else ["id", "v", "p", "q"]
    target = schema("T", *[f"{name}:int" for name in names])
    result = ColumnBatch.from_rows(["v"], [(i,) for i in range(nrows)])
    if list_columns:
        result = listed(result)
    batch = batch_of_result(target, result, next_id, pad_nulls=2)
    expected = [result.cols[0]] + [column_of([None] * nrows)] * 2
    if next_id is not None:
        expected.insert(0, column_of(list(range(next_id, next_id + nrows))))
    assert [kind(column) for column in batch.cols] == [kind(column) for column in expected]
