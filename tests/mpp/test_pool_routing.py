"""Pool workers route their owned source parts the way serial does.

Each worker owns segments ``seg % num_workers`` and hashes every part it
owns in one :func:`~repro.mpp.distribution.route` call; with 3
workers over 8 segments the ownership is uneven (3, 3, 2).  On inputs
large enough for the ``int64`` kernel, shards, their row order and the
segment clocks must equal the serial run's.  Spawns real worker
processes, hence the ``mpp`` marker.
"""

import pytest

from repro.core import MPPBackend, ProbKB
from repro.datasets import ReVerbSherlockConfig, WorldConfig, generate
from repro.mpp import HashDistribution, MPPDatabase, distribution
from repro.relational import HashJoin, Project, Scan, col, schema

pytestmark = pytest.mark.mpp

ROWS = [(i, (i * 7919) % 500, -(i % 97)) for i in range(2000)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Rows hashed by the kernel in this process (and in forked workers,
    which do not report back)."""
    calls = []
    kernel = distribution.stable_hash_int64

    def counted(arrays, nrows):
        calls.append(nrows)
        return kernel(arrays, nrows)

    monkeypatch.setattr(distribution, "stable_hash_int64", counted)
    return calls


def cluster_outcome(num_workers):
    db = MPPDatabase(nseg=8, num_workers=num_workers, worker_timeout=30.0)
    try:
        db.create_table(schema("R", "a:int", "b:int", "c:int"), HashDistribution(["a"]))
        db.create_table(schema("S", "b:int", "c:int"), HashDistribution(["b", "c"]))
        db.bulkload("R", ROWS)
        # both sides redistributed on (b) / (c), then shipped to S's key
        join = HashJoin(Scan("R", "x"), Scan("R", "y"), ["x.b"], ["y.c"])
        db.insert_from("S", Project(join, [(col("x.b"), "b"), (col("y.a"), "c")]))
        return {
            "shards": [part.rows for part in db.table("S").parts],
            "query": db.query(HashJoin(Scan("S", "s"), Scan("R", "r"), ["s.c"], ["r.b"])).rows,
            "clocks": [clock.snapshot() for clock in db.segment_clocks],
            "elapsed": db.elapsed_seconds,
            "degraded": db.degraded,
        }
    finally:
        db.close()


@pytest.mark.parametrize("num_workers", [2, 3])
def test_pooled_motions_and_inserts_route_like_serial(num_workers, kernel_calls):
    serial = cluster_outcome(0)
    assert max(kernel_calls) >= distribution._KERNEL_MIN_ROWS
    pooled = cluster_outcome(num_workers)
    assert pooled["degraded"] is False
    assert serial == pooled


@pytest.mark.parametrize("num_workers", [2, 3])
def test_pooled_grounding_routes_like_serial(num_workers, kernel_calls):
    kb = generate(ReVerbSherlockConfig(world=WorldConfig(n_people=40, seed=3), seed=3)).kb
    outcomes = []
    for workers in (0, num_workers):
        backend = MPPBackend(nseg=8, num_workers=workers)
        try:
            ProbKB(kb, backend=backend).ground()
            outcomes.append({
                name: [part.rows for part in backend.db.table(name).parts]
                for name in ("TP", "TF", "TDel")
            } | {
                "clocks": [clock.snapshot() for clock in backend.db.segment_clocks],
                "elapsed": backend.elapsed_seconds,
                "degraded": backend.db.degraded,
            })
        finally:
            backend.close()
        if not workers:
            assert max(kernel_calls) >= distribution._KERNEL_MIN_ROWS
    serial, pooled = outcomes
    assert pooled["degraded"] is False
    assert serial == pooled
