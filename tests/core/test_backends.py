"""Backend is one statement surface over either database: subclasses add
construction and (MPP) Section 4.4's physical design, never a second
copy of a statement; and there is one TΠ-view choice, the backend's
own, which the static analyzer plans through."""

import pytest

from repro.analyze import estimate_plans
from repro.core import MPPBackend, ProbKB, RelationalKB, SingleNodeBackend
from repro.core.backends import TPI_VIEWS, Backend
from repro.relational import Scan, TableSchema, schema
from repro.relational.plan import walk

from .paper_example import paper_kb

STATEMENT_SURFACE = (
    "bulkload",
    "query",
    "insert_rows",
    "insert_from",
    "insert_from_with_ids",
    "truncate",
    "delete_in",
    "table_size",
    "has_table",
    "project",
    "elapsed_seconds",
    "after_facts_changed",
    "__enter__",
    "__exit__",
)

BACKENDS = {
    "single": SingleNodeBackend,
    "mpp-matviews": lambda: MPPBackend(nseg=2),
    "mpp-naive": lambda: MPPBackend(nseg=2, use_matviews=False),
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    with BACKENDS[request.param]() as live:
        RelationalKB(paper_kb(), live)
        yield live


@pytest.mark.parametrize("name", STATEMENT_SURFACE)
def test_statement_surface_is_defined_once(backend, name):
    assert getattr(type(backend), name) is getattr(Backend, name)
    assert name not in vars(backend)


@pytest.mark.parametrize("columns", [(), ("x",), ("y",), ("x", "y")])
def test_backend_and_analyzer_scan_the_same_table(backend, columns):
    """The analyzer compiles its plans through the backend's own
    ``tpi_scan``, so every table they scan exists once the KB is loaded."""
    assert backend.has_table(backend.tpi_scan("T", columns).table_name)
    for query in estimate_plans(paper_kb(), backend).queries:
        for node in walk(query.plan):
            if isinstance(node, Scan):
                assert backend.has_table(node.table_name), (query.name, node)


def test_placement_arguments_are_ignored_on_a_single_node():
    with SingleNodeBackend() as single:
        single.create_table(schema("A", "k:int"), dist_keys=["k"])
        single.create_table(schema("B", "k:int"), replicated=True)
        assert single.insert_rows("A", [(1,)]) == single.insert_rows("B", [(1,)])
    with MPPBackend(nseg=3) as cluster:
        cluster.create_table(schema("A", "k:int"), dist_keys=["k"])
        cluster.create_table(schema("B", "k:int"), replicated=True)
        cluster.insert_rows("A", [(1,), (2,)])
        cluster.insert_rows("B", [(1,), (2,)])
        assert cluster.table_size("A") == cluster.table_size("B") == 2
        assert [len(part) for part in cluster.db.table("B").parts] == [2, 2, 2]
        assert cluster.project("B", ("k",)) == [(1,), (2,)]


def test_validation_runs_once_per_statement(monkeypatch):
    """The schema check belongs to the statement, not to storage: one
    ``validate_batch`` per bulkload / INSERT ... SELECT, on the target's
    schema over the whole result, and none from the per-segment stores
    or the four TΠ views every TΠ write is mirrored into."""
    checks = []
    validate = TableSchema.validate_batch

    def counting(self, batch):
        checks.append((self.name, batch.nrows))
        validate(self, batch)

    monkeypatch.setattr(TableSchema, "validate_batch", counting)
    statements = []

    def traced(method):
        statement = getattr(backend.db, method)

        def run(table_name, *args, **kwargs):
            before = len(checks)
            outcome = statement(table_name, *args, **kwargs)
            statements.append((method, table_name, args, outcome, checks[before:]))
            return outcome

        setattr(backend.db, method, run)

    with MPPBackend(nseg=4) as backend:
        for method in ("bulkload", "insert_from", "insert_from_with_ids"):
            traced(method)
        system = ProbKB(paper_kb(), backend=backend)
        assert set(TPI_VIEWS) <= set(backend.db.tables)
        system.ground()

    assert {method for method, *_ in statements} == {
        "bulkload", "insert_from", "insert_from_with_ids",
    }
    assert len(checks) == len(statements)
    for method, table_name, args, outcome, seen in statements:
        assert [name for name, _ in seen] == [table_name], (method, table_name)
        (_, checked_rows), = seen
        if method == "bulkload":
            assert checked_rows == len(args[0])
        elif method == "insert_from":
            assert checked_rows >= outcome
        else:
            inserted, next_id = outcome
            assert checked_rows == next_id - args[1] >= inserted
