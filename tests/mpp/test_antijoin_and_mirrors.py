"""MPP anti-joins, mirror (matview) maintenance, and explain output."""

from collections import Counter

import pytest

from repro.mpp import HashDistribution, MPPDatabase, ReplicatedDistribution
from repro.relational import Database, Scan, Values, schema
from repro.relational.plan import AntiJoin
from repro.relational.types import ExecutionError, SchemaError

LEFT = [(i, i % 5) for i in range(40)]
RIGHT = [(j, 0) for j in range(0, 40, 3)]


def build(nseg=4, right_policy=None):
    single = Database()
    cluster = MPPDatabase(nseg=nseg)
    single.create_table(schema("l", "a:int", "b:int"))
    single.create_table(schema("r", "c:int", "d:int"))
    cluster.create_table(schema("l", "a:int", "b:int"), HashDistribution(["a"]))
    cluster.create_table(
        schema("r", "c:int", "d:int"), right_policy or HashDistribution(["c"])
    )
    for engine in (single, cluster):
        engine.bulkload("l", LEFT)
        engine.bulkload("r", RIGHT)
    return single, cluster


def anti_plan():
    return AntiJoin(Scan("l"), Scan("r"), ["l.a"], ["r.c"])


def test_anti_join_single_node():
    single, _ = build()
    result = single.query(anti_plan())
    expected = [row for row in LEFT if row[0] % 3 != 0]
    assert sorted(result.rows) == sorted(expected)


@pytest.mark.parametrize("nseg", [1, 3, 8])
def test_anti_join_mpp_parity(nseg):
    single, cluster = build(nseg)
    ours = single.query(anti_plan()).sorted_rows()
    theirs = cluster.query(anti_plan()).sorted_rows()
    assert ours == theirs


def test_anti_join_against_replicated_right():
    single, cluster = build(right_policy=ReplicatedDistribution())
    assert (
        single.query(anti_plan()).sorted_rows()
        == cluster.query(anti_plan()).sorted_rows()
    )
    explain = cluster.explain_last()
    assert "Hash Anti Join" in explain
    assert "Redistribute Motion" not in explain


def test_anti_join_collocated_when_keys_match_distribution():
    _, cluster = build()  # l by a, r by c; anti keys a = c -> collocated
    cluster.query(anti_plan())
    explain = cluster.explain_last()
    assert explain.count("Motion") == 1  # only the final Gather


def test_anti_join_redistributes_when_not_collocated():
    _, cluster = build(right_policy=HashDistribution(["d"]))
    single, _ = build()
    assert (
        single.query(anti_plan()).sorted_rows()
        == cluster.query(anti_plan()).sorted_rows()
    )
    assert "Redistribute Motion" in cluster.explain_last()


class TestMirrors:
    def make(self):
        cluster = MPPDatabase(nseg=4)
        cluster.create_table(schema("t", "a:int", "b:int"), HashDistribution(["a"]))
        cluster.bulkload("t", LEFT)
        cluster.create_redistributed_matview("t_by_b", "t", ["b"])
        cluster.add_mirror("t", "t_by_b")
        return cluster

    def content(self, cluster, name):
        return Counter(cluster.table(name).all_rows())

    def test_mirror_starts_in_sync(self):
        cluster = self.make()
        assert self.content(cluster, "t") == self.content(cluster, "t_by_b")

    def test_bulkload_propagates(self):
        cluster = self.make()
        cluster.bulkload("t", [(100, 1), (101, 2)])
        assert self.content(cluster, "t") == self.content(cluster, "t_by_b")

    def test_insert_from_propagates(self):
        cluster = self.make()
        cluster.insert_from("t", Values(["a", "b"], [(200, 3), (201, 4)]))
        assert self.content(cluster, "t") == self.content(cluster, "t_by_b")

    def test_insert_from_with_ids_propagates(self):
        cluster = self.make()
        inserted, next_id = cluster.insert_from_with_ids(
            "t", Values(["b"], [(7,), (8,)]), next_id=500
        )
        assert inserted == 2 and next_id == 502
        assert self.content(cluster, "t") == self.content(cluster, "t_by_b")
        assert (500, 7) in self.content(cluster, "t")

    def test_delete_propagates(self):
        cluster = self.make()
        cluster.delete_in("t", ["b"], Values(["k"], [(0,)]))
        assert self.content(cluster, "t") == self.content(cluster, "t_by_b")
        assert all(row[1] != 0 for row in cluster.table("t").all_rows())

    def test_mirror_distribution_differs(self):
        cluster = self.make()
        view = cluster.table("t_by_b")
        for seg, part in enumerate(view.parts):
            values = {row[1] for row in part.rows}
            # every copy of a given b lands on one segment
            for other_seg, other in enumerate(view.parts):
                if other_seg != seg:
                    assert values.isdisjoint({row[1] for row in other.rows})


def test_insert_from_with_ids_single_node():
    db = Database()
    db.create_table(schema("t", "i:int", "v:int", "w:float"))
    inserted, next_id = db.insert_from_with_ids(
        "t", Values(["v"], [(5,), (6,)]), next_id=10, pad_nulls=1
    )
    assert inserted == 2 and next_id == 12
    assert db.table("t").rows == [(10, 5, None), (11, 6, None)]


def mirrored(num_workers=0):
    """``t`` hashed on ``a`` with a mirror ``v`` hashed on ``b``."""
    cluster = MPPDatabase(nseg=4, num_workers=num_workers)
    cluster.create_table(schema("t", "a:int", "b:int"), HashDistribution(["a"]))
    cluster.create_table(schema("v", "a:int", "b:int"), HashDistribution(["b"]))
    cluster.add_mirror("t", "v")
    return cluster


def one_bad_value():
    rows = [(i, i * 2) for i in range(40)]
    rows[25] = (25, "oops")  # hashes to segment 2: segments 0-1 come first
    return rows


def test_failed_insert_leaves_nothing_behind():
    """Validation runs once, over the whole statement, before any shard
    or mirror stores a row (it used to run shard by shard, after the
    lower segments had stored theirs)."""
    single = Database()
    single.create_table(schema("t", "a:int", "b:int"))
    cluster = mirrored()
    for engine in (single, cluster):
        with pytest.raises(SchemaError, match="'oops' invalid for column t.b"):
            engine.insert_from("t", Values(["a", "b"], one_bad_value()))
    assert len(single.table("t")) == 0
    for name in ("t", "v"):
        assert [len(part) for part in cluster.table(name).parts] == [0, 0, 0, 0]
    assert cluster.work_clock.rows_inserted == 0
    # and the table still takes the corrected statement whole
    good = [(i, i * 2) for i in range(40)]
    assert cluster.insert_from("t", Values(["a", "b"], good)) == 40
    assert sorted(cluster.table("v").all_rows()) == good


@pytest.mark.parametrize("make", [Database, MPPDatabase], ids=["single", "mpp"])
def test_insert_arity_mismatch_is_one_error_everywhere(make):
    db = make()
    db.create_table(schema("t", "a:int", "b:int"))
    three = Values(["x", "y", "z"], [(1, 2, 3)])
    message = "insert arity mismatch into 't': 3 != 2"
    with pytest.raises(ExecutionError, match=message):
        db.insert_from("t", three)
    with pytest.raises(ExecutionError, match=message):
        db.insert_from_with_ids("t", Values(["x"], [(1,)]), next_id=0, pad_nulls=1)
    with pytest.raises(ExecutionError, match="4 != 2"):
        db.insert_from_with_ids("t", three, next_id=0)
    assert len(db.table("t")) == 0
