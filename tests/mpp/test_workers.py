"""Multi-process MPP executor tests.

Everything here spawns real worker processes, so the whole module is
behind the ``mpp`` marker (excluded from tier-1; run with
``pytest -m mpp tests/mpp/test_workers.py`` or ``make test-mpp``).

The contract under test: with ``num_workers >= 1`` the cluster must
produce *bit-identical* results to serial execution — same rows, same
row order per segment, same modelled clock — and any worker failure
must degrade to serial execution with a warning, never a hang or a
wrong answer.
"""

import time

import pytest

from repro.core import MPPBackend, ProbKB
from repro.core.config import BackendConfig, MPPConfig
from repro.datasets import ReVerbSherlockConfig, WorldConfig, generate
from repro.datasets.paper_example import paper_kb
from repro.mpp import (
    HashDistribution,
    MPPDatabase,
    RandomDistribution,
    ReplicatedDistribution,
    WorkerCrashError,
    WorkerPool,
)
from repro.relational import (
    Aggregate,
    AntiJoin,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    UnionAll,
    Values,
    col,
    eq_const,
    schema,
)
from repro.relational.types import SchemaError

pytestmark = pytest.mark.mpp

PEOPLE = [(i, f"p{i}", (i % 7) * 10) for i in range(60)]
CITIES = [(c * 10, f"city{c}", c * 1000) for c in range(7)]


def make_cluster(num_workers, nseg=4, city_policy=None):
    cluster = MPPDatabase(nseg=nseg, num_workers=num_workers, worker_timeout=30.0)
    cluster.create_table(
        schema("person", "id:int", "name:text", "city:int"),
        HashDistribution(["id"]),
    )
    cluster.create_table(
        schema("city", "id:int", "name:text", "pop:int"),
        city_policy or HashDistribution(["id"]),
    )
    cluster.bulkload("person", PEOPLE)
    cluster.bulkload("city", CITIES)
    return cluster

def plans():
    return {
        "scan": lambda: Scan("person"),
        "filter": lambda: Filter(Scan("person", "P"), eq_const("P.city", 30)),
        "join": lambda: HashJoin(
            Scan("person", "P"), Scan("city", "C"), ["P.city"], ["C.id"]
        ),
        "aggregate": lambda: Aggregate(
            Scan("person", "P"),
            group_by=["P.city"],
            aggregates=[("count", None, "n")],
        ),
        "global_count": lambda: Aggregate(
            Scan("person", "P"), group_by=[], aggregates=[("count", None, "n")]
        ),
        "distinct": lambda: Distinct(
            Project(Scan("person", "P"), [(col("P.city"), "city")])
        ),
        # neither side is hashed on the join key: the small one is broadcast
        "broadcast_join": lambda: HashJoin(
            Scan("person", "P"), Scan("city", "C"), ["P.name"], ["C.name"]
        ),
        "anti_join": lambda: AntiJoin(
            Scan("person", "P"), Scan("city", "C"), ["P.city"], ["C.id"]
        ),
        "union": lambda: UnionAll(
            [
                Project(Scan("person", "P"), [(col("P.id"), "id")]),
                Project(Scan("city", "C"), [(col("C.id"), "id")]),
                Values(["id"], [(7,), (None,)]),
            ]
        ),
    }


class TestQueryParity:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_pooled_queries_match_serial_bit_for_bit(self, num_workers):
        serial = make_cluster(0)
        pooled = make_cluster(num_workers)
        try:
            for name, factory in plans().items():
                ours = serial.query(factory())
                theirs = pooled.query(factory())
                # identical rows in identical order, not just same sets
                assert ours.rows == theirs.rows, name
                assert ours.columns == theirs.columns, name
                # same physical plan, same modelled time per operator
                assert serial.explain_last() == pooled.explain_last(), name
                # every segment was charged the same work
                assert [c.snapshot() for c in serial.segment_clocks] == [
                    c.snapshot() for c in pooled.segment_clocks
                ], name
            assert serial.elapsed_seconds == pooled.elapsed_seconds
        finally:
            pooled.close()

    def test_replicated_dimension_join(self):
        serial = make_cluster(0, city_policy=ReplicatedDistribution())
        pooled = make_cluster(2, city_policy=ReplicatedDistribution())
        try:
            plan = HashJoin(
                Scan("person", "P"), Scan("city", "C"), ["P.city"], ["C.id"]
            )
            assert serial.query(plan).rows == pooled.query(plan).rows
            assert serial.elapsed_seconds == pooled.elapsed_seconds
        finally:
            pooled.close()

    def test_random_distribution_parity(self):
        rows = [(i, i % 5) for i in range(40)]
        results = []
        for workers in (0, 2):
            db = MPPDatabase(nseg=3, num_workers=workers)
            db.create_table(schema("R", "a:int", "b:int"), RandomDistribution())
            db.bulkload("R", rows)
            results.append(
                (db.query(Scan("R")).sorted_rows(), db.elapsed_seconds)
            )
            db.close()
        assert results[0] == results[1]


class TestDMLParity:
    def test_insert_delete_truncate_stay_synced(self):
        serial = make_cluster(0)
        pooled = make_cluster(2)
        try:
            for db in (serial, pooled):
                db.insert_rows("person", [(100, "newp", 30), (101, "newq", 0)])
                db.delete_in(
                    "person",
                    ["id"],
                    Project(
                        Filter(Scan("person", "P"), eq_const("P.city", 10)),
                        [(col("P.id"), "id")],
                    ),
                )
            assert (
                serial.query(Scan("person")).rows
                == pooled.query(Scan("person")).rows
            )
            for db in (serial, pooled):
                db.truncate("city")
            assert serial.query(Scan("city")).rows == []
            assert pooled.query(Scan("city")).rows == []
            assert serial.elapsed_seconds == pooled.elapsed_seconds
        finally:
            pooled.close()

    @pytest.mark.parametrize("with_ids", [False, True])
    def test_insert_select_into_a_replicated_target(self, with_ids):
        """The pool's copies of a replicated target receive every row of
        a partitioned result, exactly as the master's shards do."""
        columns = ["id:int", "name:text", "city:int"]
        if with_ids:
            columns.insert(0, "seq:int")
        outcomes = []
        for num_workers in (0, 2):
            db = make_cluster(num_workers)
            try:
                db.create_table(schema("copy", *columns), ReplicatedDistribution())
                if with_ids:
                    stored = db.insert_from_with_ids("copy", Scan("person"), 7)
                else:
                    stored = db.insert_from("copy", Scan("person"))
                # the scan runs in the workers when there is a pool
                outcomes.append(
                    (stored, db.query(Scan("copy")).rows, db.elapsed_seconds)
                )
            finally:
                db.close()
        serial, pooled = outcomes
        assert serial == pooled
        assert len(serial[1]) == len(PEOPLE)

    def test_failed_insert_leaves_master_and_workers_empty(self):
        """The statement is validated whole before any shard, mirror or
        worker copy is fed, so a rejected one reaches none of them."""
        pooled = MPPDatabase(nseg=4, num_workers=2, worker_timeout=30.0)
        try:
            pooled.create_table(schema("t", "a:int", "b:int"), HashDistribution(["a"]))
            pooled.create_table(schema("v", "a:int", "b:int"), HashDistribution(["b"]))
            pooled.add_mirror("t", "v")
            rows = [(i, i * 2) for i in range(40)]
            rows[25] = (25, "oops")
            with pytest.raises(SchemaError):
                pooled.insert_from("t", Values(["a", "b"], rows))
            assert not pooled.degraded
            assert pooled.work_clock.rows_inserted == 0
            for name in ("t", "v"):
                master = [part.rows for part in pooled.table(name).parts]
                # a scan's result is fetched segment by segment from the workers
                workers = [
                    part.to_rows() for part in pooled._run_plan(Scan(name))[0].parts
                ]
                assert master == workers == [[], [], [], []]
        finally:
            pooled.close()

    def test_executor_info_reports_pool(self):
        pooled = make_cluster(2)
        try:
            info = pooled.executor_info()
            assert info["mode"] == "multiprocess"
            assert info["workers"] == 2
            assert info["segments"] == 4
            assert info["degraded"] is False
        finally:
            pooled.close()
        serial = make_cluster(0)
        assert serial.executor_info()["mode"] == "serial"


class TestGroundingEquivalence:
    def ground_pair(self, kb, **kwargs):
        outcomes = []
        for workers in (0, 2):
            backend = MPPBackend(nseg=4, num_workers=workers, **kwargs)
            system = ProbKB(kb, backend=backend)
            result = system.ground()
            outcomes.append(
                {
                    # exact per-segment rows, not just the union: the
                    # pooled executor must place every row where the
                    # serial one does
                    "tp_parts": [
                        part.rows for part in backend.db.table("TP").parts
                    ],
                    "tf_parts": [
                        part.rows for part in backend.db.table("TF").parts
                    ],
                    "iterations": [
                        (s.new_facts, s.removed_facts, s.fact_count, s.seconds)
                        for s in result.iterations
                    ],
                    "factors": result.factors,
                    "elapsed": backend.elapsed_seconds,
                    "degraded": backend.db.degraded,
                }
            )
            backend.close()
        return outcomes

    def test_paper_example_identical(self):
        serial, pooled = self.ground_pair(paper_kb())
        assert pooled["degraded"] is False
        assert serial == pooled

    def test_synthetic_kb_identical(self):
        generated = generate(
            ReVerbSherlockConfig(
                world=WorldConfig(n_people=40, seed=3), seed=3
            )
        )
        serial, pooled = self.ground_pair(generated.kb)
        assert pooled["degraded"] is False
        assert serial == pooled

    def test_naive_policy_identical(self):
        serial, pooled = self.ground_pair(paper_kb(), use_matviews=False)
        assert serial == pooled


class TestCrashRecovery:
    def test_query_survives_worker_death(self):
        pooled = make_cluster(2, nseg=4)
        try:
            expected = pooled.query(Scan("person")).sorted_rows()
            pooled.pool.processes[0].terminate()
            pooled.pool.processes[0].join()
            with pytest.warns(RuntimeWarning, match="worker pool lost"):
                survived = pooled.query(Scan("person")).sorted_rows()
            assert survived == expected
            assert pooled.degraded
            assert pooled.executor_info() == {
                "mode": "serial",
                "segments": 4,
                "workers": 0,
                "degraded": True,
                "engine": "columnar",
            }
            # the degraded cluster still accepts DML and queries
            pooled.insert_rows("person", [(999, "late", 0)])
            assert len(pooled.table("person")) == len(PEOPLE) + 1
        finally:
            pooled.close()

    def test_grounding_survives_worker_death(self):
        backend = MPPBackend(nseg=4, num_workers=2, worker_timeout=30.0)
        system = ProbKB(paper_kb(), backend=backend)
        backend.db.pool.processes[-1].terminate()
        backend.db.pool.processes[-1].join()
        with pytest.warns(RuntimeWarning, match="worker pool lost"):
            result = system.ground()
        assert backend.db.degraded

        reference_backend = MPPBackend(nseg=4, num_workers=0)
        reference = ProbKB(paper_kb(), backend=reference_backend)
        ref_result = reference.ground()
        assert sorted(backend.db.table("TP").all_rows()) == sorted(
            reference_backend.db.table("TP").all_rows()
        )
        assert result.total_new_facts == ref_result.total_new_facts
        backend.close()

    def test_close_terminates_workers(self):
        pooled = make_cluster(2)
        processes = list(pooled.pool.processes)
        assert all(p.is_alive() for p in processes)
        pooled.close()
        for p in processes:
            p.join(timeout=10)
        assert not any(p.is_alive() for p in processes)


class TestWorkerPool:
    def test_workers_capped_at_segments(self):
        pool = WorkerPool(nseg=2, num_workers=8)
        try:
            assert pool.num_workers == 2
            assert pool.ping()
        finally:
            pool.close()

    def test_segment_ownership_covers_all_segments(self):
        pool = WorkerPool(nseg=5, num_workers=2)
        try:
            owned = sorted(
                seg
                for worker in range(pool.num_workers)
                for seg in pool.segments_of(worker)
            )
            assert owned == [0, 1, 2, 3, 4]
        finally:
            pool.close()

    def test_dispatch_after_close_raises(self):
        pool = WorkerPool(nseg=2, num_workers=2)
        pool.close()
        with pytest.raises(WorkerCrashError):
            pool.dispatch(("ping",))

    def test_dead_worker_raises_crash_error(self):
        pool = WorkerPool(nseg=2, num_workers=2, reply_timeout=30.0)
        try:
            pool.processes[0].terminate()
            pool.processes[0].join()
            with pytest.raises(WorkerCrashError, match="died"):
                pool.dispatch(("ping",))
        finally:
            pool.close(force=True)

    def test_workers_ignore_sigint(self):
        """Ctrl-C hits the whole process group; only the master may
        stop workers, else an interactive interrupt degrades the pool."""
        import os
        import signal

        pool = WorkerPool(nseg=4, num_workers=2)
        try:
            for proc in pool.processes:
                os.kill(proc.pid, signal.SIGINT)
            time.sleep(0.3)
            assert all(proc.is_alive() for proc in pool.processes)
            assert pool.ping()
        finally:
            pool.close()


class TestSessionIntegration:
    def test_expansion_session_with_workers(self):
        from repro.api import ExpansionSession

        config = BackendConfig(
            kind="mpp", mpp=MPPConfig(num_segments=4, num_workers=2)
        )
        with ExpansionSession(paper_kb(), backend=config) as session:
            session.ground()
            info = session.executor_info()
            assert info["mode"] == "multiprocess"
            assert info["workers"] == 2
            processes = list(session.backend.db.pool.processes)
        for p in processes:
            p.join(timeout=10)
        assert not any(p.is_alive() for p in processes)
