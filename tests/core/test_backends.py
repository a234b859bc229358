"""Backend is one statement surface over either database: subclasses add
construction and (MPP) Section 4.4's physical design, never a second
copy of a statement; and there is one TΠ-view choice, shared by the
executing backend and the static analyzer."""

import pytest

from repro.analyze import PlanEnvironment
from repro.analyze.plans import _EnvironmentScans
from repro.core import MPPBackend, RelationalKB, SingleNodeBackend
from repro.core.backends import Backend
from repro.relational import schema

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
    scans = _EnvironmentScans(PlanEnvironment.from_backend(backend))
    executed = backend.tpi_scan("T", columns)
    compiled = scans.tpi_scan("T", columns)
    assert (executed.table_name, executed.alias) == (
        compiled.table_name,
        compiled.alias,
    )
    assert backend.has_table(executed.table_name)


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
