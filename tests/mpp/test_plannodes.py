"""PhysicalNode (EXPLAIN trees), DistDesc and CostClock (modelled time) units.

These two types carry `repro explain`'s numbers; their invariants —
lossless dict round-trips, additive totals, exact counter arithmetic —
are what make the estimate-vs-actual comparisons meaningful.
"""

import pytest

from repro.mpp import DistDesc, PhysicalNode
from repro.relational.cost import (
    QUERY_OVERHEAD_S,
    ROW_SCAN_S,
    ROW_SHIP_S,
    CostClock,
)


def sample_tree():
    scan_left = PhysicalNode("Seq Scan", "on TP", seconds=0.25, rows=100)
    scan_right = PhysicalNode("Seq Scan", "on M3", seconds=0.05, rows=10)
    motion = PhysicalNode(
        "Broadcast Motion", children=[scan_right], seconds=0.5, rows=10
    )
    join = PhysicalNode(
        "Hash Join",
        "on P.R = M.R1",
        children=[scan_left, motion],
        seconds=0.2,
        rows=40,
    )
    return PhysicalNode("Gather Motion", children=[join], seconds=0.0, rows=40)


class TestPhysicalNode:
    def test_explain_indents_children(self):
        text = sample_tree().explain()
        lines = text.splitlines()
        assert lines[0].startswith("Gather Motion")
        assert lines[1] == "  Hash Join on P.R = M.R1  (rows=40, 200.00ms)"
        assert lines[2].startswith("    Seq Scan on TP")
        # the broadcast's child is nested one level deeper than it
        assert lines[3] == "    Broadcast Motion  (rows=10, 500.00ms)"
        assert lines[4].startswith("      Seq Scan on M3")

    def test_total_seconds_sums_the_whole_tree(self):
        assert sample_tree().total_seconds() == pytest.approx(1.0)

    def test_find_all_walks_depth_first(self):
        tree = sample_tree()
        scans = tree.find_all("Seq Scan")
        assert [s.detail for s in scans] == ["on TP", "on M3"]
        assert tree.find_all("Gather Motion") == [tree]
        assert tree.find_all("Redistribute Motion") == []

    def test_to_dict_omits_empty_fields(self):
        leaf = PhysicalNode("Distinct", rows=3, seconds=0.01)
        payload = leaf.to_dict()
        assert payload == {"kind": "Distinct", "rows": 3, "seconds": 0.01}
        assert "detail" not in payload
        assert "children" not in payload

    def test_dict_round_trip_is_lossless(self):
        tree = sample_tree()
        rebuilt = PhysicalNode.from_dict(tree.to_dict())
        assert rebuilt == tree
        assert rebuilt.to_dict() == tree.to_dict()

    def test_from_dict_defaults_missing_fields(self):
        node = PhysicalNode.from_dict({"kind": "Distinct"})
        assert node == PhysicalNode("Distinct")

    def test_explain_tree(self):
        leaf = PhysicalNode("Seq Scan", "on t", rows=10, seconds=0.001)
        root = PhysicalNode("Hash Join", children=[leaf], rows=5, seconds=0.002)
        text = root.explain()
        assert text.splitlines()[0].startswith("Hash Join")
        assert text.splitlines()[1].strip().startswith("Seq Scan on t")

    def test_total_seconds_and_find(self):
        leaf = PhysicalNode("Seq Scan", seconds=0.5)
        mid = PhysicalNode("Redistribute Motion", children=[leaf], seconds=0.25)
        root = PhysicalNode("Hash Join", children=[mid], seconds=0.25)
        assert root.total_seconds() == pytest.approx(1.0)
        assert len(root.find_all("Seq Scan")) == 1
        assert root.find_all("Broadcast Motion") == []


class TestDistDesc:
    def test_factories(self):
        assert DistDesc.arbitrary().kind == "arbitrary"
        assert DistDesc.hash_on(("x",)).columns == ("x",)


class TestCostClock:
    def test_seconds_is_a_linear_counter_model(self):
        clock = CostClock()
        assert clock.seconds == 0.0
        clock.charge_query()
        clock.rows_scanned += 1000
        clock.rows_shipped += 50
        assert clock.seconds == pytest.approx(
            QUERY_OVERHEAD_S + 1000 * ROW_SCAN_S + 50 * ROW_SHIP_S
        )

    def test_merge_adds_counters(self):
        a = CostClock(queries=1, rows_scanned=10, extra_seconds=0.5)
        b = CostClock(queries=2, rows_scanned=5, rows_broadcast=7)
        a.merge(b)
        assert a.queries == 3
        assert a.rows_scanned == 15
        assert a.rows_broadcast == 7
        assert a.extra_seconds == 0.5
        assert b.queries == 2  # merge never mutates its argument

    def test_copy_is_independent(self):
        original = CostClock(queries=4, rows_output=9)
        clone = original.copy()
        clone.charge_query(10)
        assert original.queries == 4
        assert clone.queries == 14
        assert clone.rows_output == 9

    def test_delta_since_inverts_merge(self):
        earlier = CostClock(queries=1, rows_scanned=100, rows_shipped=3)
        later = earlier.copy()
        later.charge_query(2)
        later.rows_scanned += 50
        delta = later.delta_since(earlier)
        assert delta.queries == 2
        assert delta.rows_scanned == 50
        assert delta.rows_shipped == 0
        assert delta.seconds == pytest.approx(
            later.seconds - earlier.seconds
        )

    def test_reset_zeroes_everything(self):
        clock = CostClock(queries=5, rows_inserted=2, extra_seconds=1.5)
        clock.reset()
        assert clock == CostClock()
        assert clock.seconds == 0.0

    def test_snapshot_reports_seconds(self):
        clock = CostClock(queries=2)
        snap = clock.snapshot()
        assert snap["queries"] == 2
        assert snap["seconds"] == pytest.approx(2 * QUERY_OVERHEAD_S)
