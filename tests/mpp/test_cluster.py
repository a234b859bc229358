"""MPP simulator tests: result parity with the single-node engine,
motion planning, matviews, and simulated-time accounting."""

from collections import Counter

import pytest

from repro.mpp import (
    HashDistribution,
    MPPDatabase,
    RandomDistribution,
    ReplicatedDistribution,
    WorkerCrashError,
)
from repro.mpp.segments import SegmentInterpreter
from repro.relational import (
    Aggregate,
    Database,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    UnionAll,
    Values,
    col,
    const,
    eq_const,
    schema,
)
from repro.relational.expr import Compare

PEOPLE = [(i, f"p{i}", (i % 7) * 10) for i in range(60)]
CITIES = [(c * 10, f"city{c}", c * 1000) for c in range(7)]


def make_pair(nseg=4, city_policy=None):
    """Build equivalent single-node and MPP databases."""
    single = Database()
    cluster = MPPDatabase(nseg=nseg)
    person_schema = schema("person", "id:int", "name:text", "city:int")
    city_schema = schema("city", "id:int", "name:text", "pop:int")
    single.create_table(person_schema)
    single.create_table(city_schema)
    cluster.create_table(person_schema, HashDistribution(["id"]))
    cluster.create_table(city_schema, city_policy or HashDistribution(["id"]))
    single.bulkload("person", PEOPLE)
    single.bulkload("city", CITIES)
    cluster.bulkload("person", PEOPLE)
    cluster.bulkload("city", CITIES)
    return single, cluster


def assert_same(single, cluster, plan_factory):
    ours = single.query(plan_factory()).sorted_rows()
    theirs = cluster.query(plan_factory()).sorted_rows()
    assert ours == theirs


@pytest.mark.parametrize("nseg", [1, 3, 8])
def test_scan_parity(nseg):
    single, cluster = make_pair(nseg)
    assert_same(single, cluster, lambda: Scan("person"))


def test_filter_parity():
    single, cluster = make_pair()
    assert_same(
        single, cluster, lambda: Filter(Scan("person"), eq_const("person.city", 10))
    )


def test_join_parity_not_collocated():
    single, cluster = make_pair()
    factory = lambda: HashJoin(
        Scan("person", "p"), Scan("city", "c"), ["p.city"], ["c.id"]
    )
    assert_same(single, cluster, factory)


def test_join_collocated_when_distributed_on_keys():
    # person distributed by city, city by id: join keys match distributions
    cluster = MPPDatabase(nseg=4)
    cluster.create_table(
        schema("person", "id:int", "name:text", "city:int"),
        HashDistribution(["city"]),
    )
    cluster.create_table(
        schema("city", "id:int", "name:text", "pop:int"), HashDistribution(["id"])
    )
    cluster.bulkload("person", PEOPLE)
    cluster.bulkload("city", CITIES)
    result = cluster.query(
        HashJoin(Scan("person", "p"), Scan("city", "c"), ["p.city"], ["c.id"])
    )
    assert len(result) == len(PEOPLE)
    explain = cluster.explain_last()
    assert "Motion" not in explain.replace("Gather Motion", "")


def test_join_uncollocated_has_motion():
    single, cluster = make_pair()
    plan = HashJoin(Scan("person", "p"), Scan("city", "c"), ["p.city"], ["c.id"])
    cluster.query(plan)
    explain = cluster.explain_last()
    assert "Redistribute Motion" in explain or "Broadcast Motion" in explain


def test_replicated_join_needs_no_motion():
    single, cluster = make_pair(city_policy=ReplicatedDistribution())
    plan_factory = lambda: HashJoin(
        Scan("person", "p"), Scan("city", "c"), ["p.city"], ["c.id"]
    )
    assert_same(single, cluster, plan_factory)
    explain = cluster.explain_last()
    assert "Redistribute Motion" not in explain
    assert "Broadcast Motion" not in explain


def test_aggregate_parity():
    single, cluster = make_pair()
    factory = lambda: Aggregate(
        Scan("person", "p"),
        group_by=["p.city"],
        aggregates=[("count", None, "n"), ("min", "p.id", "min_id")],
    )
    assert_same(single, cluster, factory)


def test_aggregate_having_parity():
    single, cluster = make_pair()
    factory = lambda: Aggregate(
        Scan("person", "p"),
        group_by=["p.city"],
        aggregates=[("count", None, "n")],
        having=Compare(">", col("n"), const(8)),
    )
    assert_same(single, cluster, factory)


def test_global_aggregate_parity():
    single, cluster = make_pair()
    factory = lambda: Aggregate(
        Scan("person"), group_by=[], aggregates=[("count", None, "n")]
    )
    assert_same(single, cluster, factory)


def test_distinct_parity():
    single, cluster = make_pair()
    factory = lambda: Distinct(
        Project(Scan("person"), [(col("person.city"), "c")])
    )
    assert_same(single, cluster, factory)


def test_signed_zero_keys_meet_on_one_segment():
    """``0.0 == -0.0``, so they must hash to one segment: a redistributed
    join matches them with each other and a distinct keeps one."""
    single, cluster = Database(), MPPDatabase(nseg=8)
    for table, key, rows in [
        (schema("l", "a:int", "b:float"), "a", [(1, 0.0), (2, -0.0)]),
        (schema("r", "c:float", "d:int"), "d", [(0.0, 1), (-0.0, 2)]),
        (schema("t", "x:float"), "x", [(0.0,), (-0.0,)]),
    ]:
        single.create_table(table)
        cluster.create_table(table, HashDistribution([key]))
        single.bulkload(table.name, rows)
        cluster.bulkload(table.name, rows)
    join = lambda: HashJoin(Scan("l"), Scan("r"), ["l.b"], ["r.c"])
    assert len(single.query(join()).rows) == 4
    assert Counter(cluster.query(join()).rows) == Counter(single.query(join()).rows)
    assert len(single.query(Distinct(Scan("t"))).rows) == 1
    assert len(cluster.query(Distinct(Scan("t"))).rows) == 1


def test_union_parity():
    single, cluster = make_pair()
    factory = lambda: UnionAll(
        [
            Project(Scan("person"), [(col("person.city"), "c")]),
            Project(Scan("city"), [(col("city.id"), "c")]),
        ]
    )
    assert_same(single, cluster, factory)


def test_insert_from_dedups_across_segments():
    cluster = MPPDatabase(nseg=4)
    cluster.create_table(
        schema("t", "a:int", "b:int", unique_key=["a", "b"]),
        HashDistribution(["a"]),
    )
    cluster.bulkload("t", [(1, 1), (2, 2)])
    inserted = cluster.insert_from("t", Values(["a", "b"], [(1, 1), (3, 3), (3, 3)]))
    assert inserted == 1  # (1,1) already present; (3,3) stored exactly once
    assert len(cluster.table("t")) == 3


TARGET_POLICIES = {
    "hash": lambda: HashDistribution(["id"]),
    "random": RandomDistribution,
    "replicated": ReplicatedDistribution,
}


@pytest.mark.parametrize("with_ids", [False, True], ids=["plain", "with-ids"])
@pytest.mark.parametrize("source", ["person", "city"])
@pytest.mark.parametrize("target", sorted(TARGET_POLICIES))
def test_insert_select_into_every_kind_of_target(target, source, with_ids):
    """INSERT ... SELECT of a partitioned (person) or replicated (city)
    result lands every gathered source row in the target — on every
    segment of a replicated one — and in the target's mirrors."""
    _, cluster = make_pair(city_policy=ReplicatedDistribution())
    rows = cluster.query(Scan(source)).rows
    columns = ["id:int", "name:text", "num:int"]
    if with_ids:
        columns.insert(0, "seq:int")
    cluster.create_table(schema("target", *columns), TARGET_POLICIES[target]())
    cluster.create_table(schema("shadow", *columns), HashDistribution(["id"]))
    cluster.add_mirror("target", "shadow")
    broadcast_before = cluster.work_clock.rows_broadcast
    if with_ids:
        inserted, next_id = cluster.insert_from_with_ids("target", Scan(source), 100)
        assert next_id == 100 + len(rows)
        rows = [(100 + i,) + row for i, row in enumerate(rows)]
    else:
        inserted = cluster.insert_from("target", Scan(source))
    assert inserted == len(rows)
    assert sorted(cluster.table("target").all_rows()) == sorted(rows)
    assert sorted(cluster.table("shadow").all_rows()) == sorted(rows)
    if target == "replicated":
        for part in cluster.table("target").parts:
            assert sorted(part.rows) == sorted(rows)
        if source == "person":
            # every row reaches the nseg - 1 segments it was not on
            broadcast = cluster.work_clock.rows_broadcast - broadcast_before
            assert broadcast == len(rows) * (cluster.nseg - 1)


def test_delete_in():
    _, cluster = make_pair()
    removed = cluster.delete_in("person", ["city"], Values(["k"], [(10,), (20,)]))
    assert removed == sum(1 for p in PEOPLE if p[2] in (10, 20))


def test_redistributed_matview():
    _, cluster = make_pair()
    cluster.create_redistributed_matview("person_by_city", "person", ["city"])
    view = cluster.table("person_by_city")
    assert len(view) == len(PEOPLE)
    # all rows with the same city on the same segment
    for _part in view.parts:
        pass
    plan = HashJoin(
        Scan("person_by_city", "p"), Scan("city", "c"), ["p.city"], ["c.id"]
    )
    cluster.query(plan)
    explain = cluster.explain_last()
    # collocated: no motion below the final gather
    assert explain.count("Motion") == 1  # only the Gather


def test_matview_mirrors_its_source():
    """A view is filled from its source at creation and then follows
    the source's DML as a mirror — there is no refresh."""
    _, cluster = make_pair()
    cluster.create_redistributed_matview("v", "person", ["city"])
    cluster.add_mirror("person", "v")

    def in_step():
        return Counter(cluster.table("v").all_rows()) == Counter(
            cluster.table("person").all_rows()
        )

    assert in_step() and len(cluster.table("v")) == len(PEOPLE)
    cluster.insert_from(
        "person", Values(["id", "name", "city"], [(999, "new", 30), (998, "n2", 10)])
    )
    assert in_step() and len(cluster.table("v")) == len(PEOPLE) + 2
    removed = cluster.delete_in("person", ["city"], Values(["k"], [(10,)]))
    assert removed > 0 and in_step()


def test_mirror_registrations_follow_their_tables():
    """Registering twice mirrors once; replacing or dropping a table
    forgets the registrations from it and into it."""
    _, cluster = make_pair()
    person_schema = cluster.table("person").schema
    cluster.create_redistributed_matview("v", "person", ["city"])
    cluster.add_mirror("person", "v")
    cluster.add_mirror("person", "v")
    cluster.insert_rows("person", [(999, "new", 30)])
    assert len(cluster.table("v")) == len(PEOPLE) + 1

    cluster.create_redistributed_matview("v", "person", ["city"])  # replaces v
    assert cluster._mirrors["person"] == []
    cluster.add_mirror("person", "v")
    cluster.create_table(person_schema, HashDistribution(["id"]), replace=True)
    assert "person" not in cluster._mirrors
    cluster.add_mirror("person", "v")
    cluster.drop_table("v")
    assert cluster._mirrors["person"] == []


def test_elapsed_time_accumulates():
    _, cluster = make_pair()
    before = cluster.elapsed_seconds
    cluster.query(Scan("person"))
    assert cluster.elapsed_seconds > before


def test_unique_key_requires_distkey_subset():
    cluster = MPPDatabase(nseg=2)
    with pytest.raises(Exception):
        cluster.create_table(
            schema("t", "a:int", "b:int", unique_key=["a"]),
            HashDistribution(["b"]),
        )


def test_more_segments_less_elapsed():
    """Parallel (modelled) time should shrink with more segments."""
    times = {}
    for nseg in (1, 8):
        cluster = MPPDatabase(nseg=nseg)
        cluster.create_table(
            schema("big", "a:int", "b:int"), HashDistribution(["a"])
        )
        cluster.bulkload("big", [(i, i % 100) for i in range(20000)])
        cluster.query(Filter(Scan("big"), eq_const("big.b", 5)))
        times[nseg] = cluster.elapsed_seconds
    assert times[8] < times[1]


class FlakyPool:
    """A stand-in worker pool, in this process: it runs operator
    commands on a segment interpreter over the cluster's own shards
    (so an aborted attempt really charges the clocks, as workers'
    acks do), ignores mirrored DML, and loses its "workers" on the
    ``fail_at``-th operator."""

    num_workers = 1

    def __init__(self, cluster, fail_at):
        self.local = SegmentInterpreter(
            range(cluster.nseg),
            cluster.nseg,
            lambda name, seg: cluster.tables[name].parts[seg],
        )
        self.fail_at = fail_at
        self.operators = 0
        self.epochs = 0
        self.closed = False

    def next_epoch(self):
        self.epochs += 1
        return self.epochs

    def dispatch(self, command=None, per_worker=None):
        if per_worker is not None or not hasattr(self.local, "_cmd_" + command[0]):
            return {0: {}}  # mirrored DML: the shards are shared
        self.operators += 1
        if self.operators == self.fail_at:
            raise WorkerCrashError("worker 0 died (injected)")
        return {0: self.local.execute(command)}

    def reset_intermediates(self):
        self.dispatch(("reset",))

    def close(self, force=False):
        self.closed = True


def test_degraded_statement_charges_what_a_serial_one_does():
    def plan():
        return Aggregate(
            HashJoin(Scan("person", "p"), Scan("city", "c"), ["p.city"], ["c.id"]),
            group_by=["c.name"],
            aggregates=[("count", None, "n")],
        )

    _, serial = make_pair(nseg=3)
    expected = serial.query(plan())

    _, pooled = make_pair(nseg=3)
    # both scans and the motion are done and charged; the join loses the pool
    pooled.pool = flaky = FlakyPool(pooled, fail_at=4)
    with pytest.warns(RuntimeWarning, match="worker pool lost"):
        survived = pooled.query(plan())

    assert flaky.closed and pooled.degraded and pooled.pool is None
    assert survived.rows == expected.rows
    assert pooled.work_clock.snapshot() == serial.work_clock.snapshot()
    assert [c.snapshot() for c in pooled.segment_clocks] == [
        c.snapshot() for c in serial.segment_clocks
    ]
    assert pooled.explain_last() == serial.explain_last()
    assert pooled.elapsed_seconds == serial.elapsed_seconds
