"""Expression semantics, column resolution, and SQL text rendering."""

import pytest

from repro.relational import (
    Aggregate,
    And,
    Compare,
    Database,
    Distinct,
    Filter,
    HashJoin,
    IsNull,
    Not,
    Or,
    PlanError,
    Project,
    Scan,
    SqliteMirror,
    col,
    conj,
    const,
    eq,
    eq_const,
    schema,
    to_sql,
)
from repro.relational.expr import resolve_column
from repro.relational.types import sql_literal


class TestResolution:
    COLUMNS = ["T.a", "T.b", "U.a", "c"]

    def test_exact_match(self):
        assert resolve_column("T.a", self.COLUMNS) == 0
        assert resolve_column("c", self.COLUMNS) == 3

    def test_suffix_match(self):
        assert resolve_column("b", self.COLUMNS) == 1

    def test_ambiguous_suffix(self):
        with pytest.raises(PlanError):
            resolve_column("a", self.COLUMNS)

    def test_missing(self):
        with pytest.raises(PlanError):
            resolve_column("zz", self.COLUMNS)


class TestExprSemantics:
    def bind(self, expr, columns=("a", "b")):
        return expr.bind(list(columns))

    def test_null_comparisons_are_false(self):
        evaluate = self.bind(eq("a", "b"))
        assert evaluate((None, 1)) is False
        assert evaluate((1, None)) is False
        assert evaluate((1, 1)) is True

    def test_boolean_operators(self):
        both = And(eq_const("a", 1), eq_const("b", 2))
        either = Or(eq_const("a", 1), eq_const("b", 2))
        neither = Not(either)
        assert self.bind(both)((1, 2)) and not self.bind(both)((1, 3))
        assert self.bind(either)((1, 9)) and not self.bind(either)((0, 0))
        assert self.bind(neither)((0, 0))

    def test_is_null(self):
        assert self.bind(IsNull(col("a")))((None, 1))
        assert self.bind(IsNull(col("a"), negated=True))((2, 1))

    def test_ordering_comparisons(self):
        greater = Compare(">", col("a"), const(5))
        assert self.bind(greater)((6, 0)) and not self.bind(greater)((5, 0))

    def test_conj_single_collapses(self):
        single = conj(eq_const("a", 1))
        assert isinstance(single, Compare)

    def test_expression_referenced_columns(self):
        expr = And(eq("a", "b"), IsNull(col("a")))
        assert sorted(expr.referenced_columns()) == ["a", "a", "b"]


class TestSqlLiterals:
    def test_quoting(self):
        assert sql_literal("o'hara") == "'o''hara'"
        assert sql_literal(None) == "NULL"
        assert sql_literal(3) == "3"
        assert sql_literal(2.5) == "2.5"


class TestSqlText:
    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table(schema("t", "a:int", "b:int", "s:text"))
        database.bulkload(
            "t", [(1, 10, "x"), (2, 20, "y"), (3, 20, None), (2, 30, "x")]
        )
        return database

    def check(self, db, plan):
        ours = db.query(plan).sorted_rows()
        with SqliteMirror(db) as mirror:
            theirs = mirror.run_sorted(to_sql(plan))
        assert ours == theirs

    def test_filter_with_string_literal(self, db):
        self.check(db, Filter(Scan("t"), eq_const("t.s", "x")))

    def test_is_not_null_filter(self, db):
        self.check(db, Filter(Scan("t"), IsNull(col("t.s"), negated=True)))

    def test_or_predicate(self, db):
        predicate = Or(eq_const("t.a", 1), eq_const("t.b", 30))
        self.check(db, Filter(Scan("t"), predicate))

    def test_self_join(self, db):
        plan = HashJoin(Scan("t", "t1"), Scan("t", "t2"), ["t1.b"], ["t2.b"])
        self.check(db, Project(plan, [(col("t1.a"), "a1"), (col("t2.a"), "a2")]))

    def test_distinct_projection(self, db):
        self.check(db, Distinct(Project(Scan("t"), [(col("t.b"), "b")])))

    def test_count_distinct(self, db):
        plan = Aggregate(
            Scan("t"),
            group_by=["t.b"],
            aggregates=[("count_distinct", "t.a", "n")],
        )
        self.check(db, plan)

    def test_global_count(self, db):
        plan = Aggregate(Scan("t"), group_by=[], aggregates=[("count", None, "n")])
        self.check(db, plan)

    def test_sum_and_max(self, db):
        plan = Aggregate(
            Scan("t"),
            group_by=["t.b"],
            aggregates=[("sum", "t.a", "total"), ("max", "t.a", "top")],
        )
        self.check(db, plan)

    def test_min_with_having(self, db):
        plan = Aggregate(
            Scan("t"),
            group_by=["t.b"],
            aggregates=[("count", None, "n"), ("min", "t.a", "lo")],
            having=Compare(">", col("n"), const(1)),
        )
        self.check(db, plan)

    def test_filter_above_distinct_projection(self, db):
        # a predicate over output columns commutes with both: still one block
        deduped = Distinct(Project(Scan("t"), [(col("t.b"), "b")]))
        self.check(db, Filter(deduped, Compare(">", col("b"), const(10))))

    #: shapes one SELECT block cannot express; flattening them printed
    #: SQL that sqlite rejected or that returned different rows
    NEEDS_SUBQUERY = {
        "filter_above_aggregate": lambda: Filter(
            Aggregate(Scan("t"), ["t.a"], [("count", None, "n")]),
            Compare(">", col("n"), const(1)),
        ),
        "project_above_distinct": lambda: Project(
            Distinct(Scan("t")), [(col("t.b"), "b")]
        ),
        "distinct_under_join": lambda: HashJoin(
            Distinct(Project(Scan("t", "x"), [(col("x.a"), "a")])),
            Scan("t", "y"), ["a"], ["y.a"],
        ),
    }

    @pytest.mark.parametrize("shape", sorted(NEEDS_SUBQUERY))
    def test_unrenderable_shapes_are_rejected(self, db, shape):
        plan = self.NEEDS_SUBQUERY[shape]()
        db.query(plan)  # a well-formed plan: the engine runs it
        with pytest.raises(PlanError, match="one SELECT block"):
            to_sql(plan)

    def test_explain_text(self, db):
        plan = Filter(Scan("t"), eq_const("t.a", 1))
        text = plan.explain()
        assert "Filter" in text and "Seq Scan on t" in text
