"""Relational model tests: dictionaries, table loading, encoding."""

import pytest

from repro.core import (
    Dictionary,
    MPPBackend,
    ProbKB,
    RelationalKB,
    SingleNodeBackend,
)
from repro.core.backends import TPI_VIEWS
from repro.relational import Scan

from .paper_example import paper_kb


class TestDictionary:
    def test_dense_ids(self):
        d = Dictionary()
        assert d.id("a") == 0
        assert d.id("b") == 1
        assert d.id("a") == 0  # stable
        assert len(d) == 2

    def test_name_roundtrip(self):
        d = Dictionary()
        for name in ("x", "y", "z"):
            d.id(name)
        assert [d.name(d.id(n)) for n in ("x", "y", "z")] == ["x", "y", "z"]

    def test_lookup_missing(self):
        d = Dictionary()
        assert d.lookup("ghost") is None

    def test_rows(self):
        d = Dictionary()
        d.id("a")
        d.id("b")
        assert d.rows() == [(0, "a"), (1, "b")]


@pytest.fixture(scope="module")
def rkb():
    return RelationalKB(paper_kb(), SingleNodeBackend())


class TestLoad:
    def test_load_report(self, rkb):
        report = rkb.load_report
        assert report.facts == 2
        assert report.entities == 3
        assert report.classes == 3
        assert sum(report.rules_by_partition.values()) == 6
        assert report.rules_by_partition[1] == 4
        assert report.rules_by_partition[3] == 2

    def test_nonempty_partitions(self, rkb):
        assert rkb.nonempty_partitions == [1, 3]

    def test_dictionary_tables_loaded(self, rkb):
        backend = rkb.backend
        assert backend.table_size("DE") == 3
        assert backend.table_size("DC") == 3
        assert backend.table_size("DR") == 4  # distinct relation names

    def test_tc_holds_memberships(self, rkb):
        assert rkb.backend.table_size("TC") == 3

    def test_staging_tables_exist(self, rkb):
        for table in ("TNew", "TDel"):
            assert rkb.backend.has_table(table)
        # no delta copy: semi-naive iteration 1 joins TΠ's ids from 0 on
        assert not rkb.backend.has_table("TDelta")
        # no factor staging: a flush's delta variants are disjoint
        assert not rkb.backend.has_table("TFNew")
        assert rkb.delta_start == 0

    def test_duplicate_facts_deduped_on_load(self):
        kb = paper_kb()
        before = len(kb.facts)
        loaded = RelationalKB(kb, SingleNodeBackend())
        assert loaded.fact_count() == before

    def test_mln_rows_shape(self, rkb):
        m1 = rkb.backend.query(Scan("M1"))
        assert m1.columns == ["M1.R1", "M1.R2", "M1.C1", "M1.C2", "M1.w"]
        assert len(m1) == 4


class TestEncodeDecode:
    def test_fact_roundtrip(self, rkb):
        fact = paper_kb().facts[0]
        key = rkb.encode_fact_key(fact)
        row = (99,) + key + (fact.weight,)
        decoded = rkb.decode_fact(row)
        assert decoded.key == fact.key
        assert decoded.weight == fact.weight


class TestMPPLoad:
    def test_views_created_and_registered(self):
        backend = MPPBackend(nseg=3, use_matviews=True)
        RelationalKB(paper_kb(), backend)
        for view in TPI_VIEWS:
            assert backend.has_table(view)
            assert backend.table_size(view) == backend.table_size("TP")
        assert set(backend.db._mirrors["TP"]) == set(TPI_VIEWS)

    @pytest.mark.parametrize(
        "num_workers", [0, pytest.param(2, marks=pytest.mark.mpp)]
    )
    def test_second_kb_on_a_live_backend_equals_a_fresh_one(self, num_workers):
        """Reloading replaces TΠ and its views; the first load's mirror
        registrations must go with them (left in place, every new fact
        reached each view twice: 12-row views, 20 factors instead of 8)."""

        def grounded(backend):
            system = ProbKB(paper_kb(), backend=backend)
            system.ground()
            return (
                sorted(fact.key for fact in system.all_facts()),
                sorted(row[-1] for row in system.factor_rows()),
                {view: backend.table_size(view) for view in TPI_VIEWS},
                sorted(backend.db._mirrors["TP"]),
            )

        with MPPBackend(nseg=2, num_workers=num_workers) as backend:
            grounded(backend)
            second = grounded(backend)
        with MPPBackend(nseg=2, num_workers=num_workers) as backend:
            fresh = grounded(backend)
        assert second == fresh
        facts, factor_weights, view_sizes, mirrors = second
        assert len(facts) == 7 and len(factor_weights) == 8
        assert set(view_sizes.values()) == {7}
        assert mirrors == sorted(TPI_VIEWS)

    def test_no_views_without_matviews(self):
        backend = MPPBackend(nseg=3, use_matviews=False)
        RelationalKB(paper_kb(), backend)
        for view in TPI_VIEWS:
            assert not backend.has_table(view)

    def test_tpi_scan_selection(self):
        backend = MPPBackend(nseg=3, use_matviews=True)
        RelationalKB(paper_kb(), backend)
        assert backend.tpi_scan("T", []).table_name == "T0"
        assert backend.tpi_scan("T", ["x"]).table_name == "Tx"
        assert backend.tpi_scan("T", ["y"]).table_name == "Ty"
        assert backend.tpi_scan("T", ["x", "y"]).table_name == "Txy"

    def test_tpi_scan_falls_back_to_tp(self):
        backend = MPPBackend(nseg=3, use_matviews=False)
        RelationalKB(paper_kb(), backend)
        assert backend.tpi_scan("T", ["x"]).table_name == "TP"
        single = SingleNodeBackend()
        RelationalKB(paper_kb(), single)
        assert single.tpi_scan("T", ["x", "y"]).table_name == "TP"


BACKENDS = {
    "single": SingleNodeBackend,
    "mpp-matviews": lambda: MPPBackend(nseg=3, use_matviews=True),
    "mpp-naive": lambda: MPPBackend(nseg=3, use_matviews=False),
}


@pytest.mark.parametrize("make_backend", BACKENDS.values(), ids=BACKENDS)
class TestDuplicateRules:
    """Proposition 1 needs every M_i duplicate-free; the counts the load
    and add_rules report are the rows actually stored."""

    @staticmethod
    def stored(rkb, partition):
        rows = rkb.backend.query(Scan(f"M{partition}")).rows
        assert len(rows) == len(set(rows))
        return len(rows)

    def test_duplicates_within_the_load_are_stored_once(self, make_backend):
        kb = paper_kb()
        kb.rules += [kb.rules[0], kb.rules[4], kb.rules[0]]
        rkb = RelationalKB(kb, make_backend())
        assert rkb.load_report.rules_by_partition == {1: 4, 2: 0, 3: 2, 4: 0, 5: 0, 6: 0}
        assert (self.stored(rkb, 1), self.stored(rkb, 3)) == (4, 2)
        assert rkb.nonempty_partitions == [1, 3]

    def test_duplicates_within_and_across_add_rules_batches(self, make_backend):
        kb = paper_kb()
        held_back = kb.rules[4:]  # both partition-3 rules
        del kb.rules[4:]
        rkb = RelationalKB(kb, make_backend())
        assert rkb.nonempty_partitions == [1]
        # a batch of stored rules only: nothing stored, no partition gained
        assert rkb.add_rules([kb.rules[0], kb.rules[1]]) == 0
        assert rkb.nonempty_partitions == [1]
        # the same new rule twice in one batch is stored once
        assert rkb.add_rules([held_back[0], held_back[0], kb.rules[2]]) == 1
        assert rkb.nonempty_partitions == [1, 3]
        # across batches: the repeat is dropped, the new rule kept
        assert rkb.add_rules([held_back[0], held_back[1]]) == 1
        assert (self.stored(rkb, 1), self.stored(rkb, 3)) == (4, 2)
