"""PlanCheck, logical layer: every PKB201-208 code fires on a plan
built to violate exactly that invariant, and clean plans stay clean."""

import pytest

from repro.relational.expr import Col, Compare, Const
from repro.relational.plan import (
    Aggregate,
    AntiJoin,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    UnionAll,
    Values,
)
from repro.relational.types import ExecutionError, PlanError
from repro.relational.verify import (
    LOGICAL_CODES,
    PlanFinding,
    PlanVerificationError,
    VerificationReport,
    verify_plan,
    verify_plans_enabled,
)


def bound_scan(table="T", alias=None, columns=("a", "b")):
    scan = Scan(table, alias)
    scan.set_table_columns(list(columns))
    return scan


def codes(report):
    return report.codes


# -- registry & report plumbing ----------------------------------------------


def test_registry_covers_pkb201_to_208():
    assert set(LOGICAL_CODES) == {f"PKB20{i}" for i in range(1, 9)}
    for code, (severity, title) in LOGICAL_CODES.items():
        assert severity in ("error", "warning")
        assert title


def test_finding_requires_a_valid_severity():
    with pytest.raises(ValueError):
        PlanFinding(code="PKB201", path="root", message="m")
    with pytest.raises(ValueError):
        PlanFinding(code="PKB201", path="root", message="m", severity="fatal")


def test_report_partitions_renders_and_serializes():
    f1 = PlanFinding("PKB203", "root.0", "bad", severity="error")
    f2 = PlanFinding("PKB208", "root", "meh", severity="warning")
    report = VerificationReport(plan_name="Q", findings=(f1, f2))
    assert not report.ok
    assert [f.code for f in report.errors] == ["PKB203"]
    assert [f.code for f in report.warnings] == ["PKB208"]
    assert report.codes == ["PKB203", "PKB208"]
    rendered = report.render()
    assert rendered.startswith("verify Q: 1 errors, 1 warnings")
    assert "root.0: PKB203 error bad" in rendered
    payload = report.to_dict()
    assert payload["plan"] == "Q" and payload["ok"] is False
    assert payload["findings"][0]["path"] == "root.0"
    with pytest.raises(PlanVerificationError) as info:
        report.raise_if_errors()
    assert info.value.report is report
    assert isinstance(info.value, PlanError)
    # existing ``except ExecutionError`` handlers must keep working
    # when the runtime gate turns a would-be execution failure into a
    # pre-execution verification failure
    assert isinstance(info.value, ExecutionError)


def test_clean_report_raises_nothing():
    report = verify_plan(bound_scan(), name="scan")
    assert report.ok and report.findings == ()
    assert report.render() == "verify scan: clean"
    report.raise_if_errors()


def test_gate_is_the_env_var(monkeypatch):
    monkeypatch.delenv("PROBKB_VERIFY_PLANS", raising=False)
    assert verify_plans_enabled() is False
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv("PROBKB_VERIFY_PLANS", value)
        assert verify_plans_enabled() is True
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", "0")
    assert verify_plans_enabled() is False


# -- PKB201: unbound scan of an unknown table --------------------------------


def test_pkb201_unbound_unknown_scan():
    report = verify_plan(Scan("Mystery"))
    (finding,) = report.findings
    assert finding.code == "PKB201"
    assert finding.path == "root"
    assert finding.severity == "error"
    assert "Seq Scan on Mystery" in finding.message
    assert "not a known table" in finding.message


def test_pkb201_names_the_known_tables():
    class FakeColumn:
        def __init__(self, name):
            self.name = name
            self.type = "int"

    class FakeSchema:
        columns = [FakeColumn("a")]

    report = verify_plan(Scan("Mystery"), tables={"TP": FakeSchema()})
    (finding,) = report.findings
    assert finding.code == "PKB201"
    assert "known tables: TP" in finding.message
    # and the known table itself verifies clean through the schema
    assert verify_plan(Scan("TP"), tables={"TP": FakeSchema()}).ok


# -- PKB202: duplicate output columns ----------------------------------------


def test_pkb202_self_join_duplicate_columns():
    left = bound_scan(alias="T")
    right = bound_scan(alias="T")
    join = HashJoin(left, right, ["T.a"], ["T.a"])
    report = verify_plan(join)
    dupes = [f for f in report.findings if f.code == "PKB202"]
    assert dupes and dupes[0].path == "root"
    assert "duplicate output columns" in dupes[0].message
    assert "T.a" in dupes[0].message and "T.b" in dupes[0].message


def test_pkb202_project_duplicate_names():
    plan = Project(bound_scan(), [(Col("a"), "x"), (Col("b"), "x")])
    (finding,) = verify_plan(plan).findings
    assert finding.code == "PKB202"
    assert finding.path == "root"
    assert "Project: duplicate output columns [x]" in finding.message


# -- PKB203: out-of-scope or ambiguous references ----------------------------


def test_pkb203_filter_references_unknown_column():
    plan = Filter(bound_scan(), Compare("=", Col("nope"), Const(1)))
    (finding,) = verify_plan(plan).findings
    assert finding.code == "PKB203"
    assert finding.path == "root"
    assert finding.message.startswith("Filter: expression")
    assert "nope" in finding.message
    assert finding.details["scope"] == ["T.a", "T.b"]


def test_pkb203_ambiguous_join_key():
    left = bound_scan(alias="L")
    right = bound_scan(alias="R")
    join = HashJoin(left, right, ["L.a"], ["R.a"])
    # 'a' alone is ambiguous in the combined scope of a downstream filter
    plan = Filter(join, Compare("=", Col("a"), Const(1)))
    (finding,) = verify_plan(plan).findings
    assert finding.code == "PKB203" and finding.path == "root"


# -- PKB204: join key arity --------------------------------------------------


def test_pkb204_key_arity_mismatch():
    left = bound_scan(alias="L")
    right = bound_scan(alias="R")
    with pytest.raises(PlanError):
        HashJoin(left, right, ["L.a", "L.b"], ["R.a"])
    join = HashJoin(left, right, ["L.a"], ["R.a"])
    join.left_keys = ["L.a", "L.b"]  # corrupt post-construction
    report = verify_plan(join)
    findings = [f for f in report.findings if f.code == "PKB204"]
    assert findings and findings[0].path == "root"
    assert "2 left keys [L.a, L.b] vs 1 right keys [R.a]" in findings[0].message


# -- PKB205: join key type disagreement --------------------------------------


def _typed_schema(spec):
    class FakeColumn:
        def __init__(self, name, type_):
            self.name = name
            self.type = type_

    class FakeSchema:
        columns = [FakeColumn(n, t) for n, t in spec]

    return FakeSchema()


def test_pkb205_type_disagreement():
    tables = {
        "Nums": _typed_schema([("k", "int")]),
        "Words": _typed_schema([("k", "text")]),
    }
    join = HashJoin(Scan("Nums", "N"), Scan("Words", "W"), ["N.k"], ["W.k"])
    report = verify_plan(join, tables=tables)
    (finding,) = [f for f in report.findings if f.code == "PKB205"]
    assert finding.path == "root"
    assert "N.k is int but W.k is text" in finding.message


def test_pkb205_silent_when_types_unknown():
    # bound scans carry no types: the check must not guess
    join = HashJoin(bound_scan(alias="L"), bound_scan(alias="R"), ["L.a"], ["R.a"])
    assert verify_plan(join).ok


# -- PKB206: UnionAll shape --------------------------------------------------


def test_pkb206_arity_mismatch_after_rebinding():
    wide = bound_scan(alias="L", columns=("a", "b"))
    narrow = bound_scan(alias="R", columns=("a", "b"))
    union = UnionAll([wide, narrow])
    narrow.set_table_columns(["a", "b", "c"])  # schema drifted post-plan
    report = verify_plan(union)
    (finding,) = [f for f in report.findings if f.code == "PKB206"]
    assert finding.severity == "error"
    assert finding.path == "root"
    assert "child 1 has 3 columns" in finding.message
    assert "expected 2" in finding.message


def test_pkb206_name_drift_is_a_warning():
    union = UnionAll(
        [Values(["a", "b"], [(1, 2)]), Values(["a", "c"], [(3, 4)])]
    )
    report = verify_plan(union)
    (finding,) = report.findings
    assert finding.code == "PKB206" and finding.severity == "warning"
    assert report.ok  # warnings never fail a plan
    assert "column names drift" in finding.message
    assert "b vs c" in finding.message


def test_pkb206_qualified_names_do_not_drift():
    # L.a vs R.a is the same column name under different aliases
    union = UnionAll(
        [bound_scan(alias="L", columns=("a",)), bound_scan(alias="R", columns=("a",))]
    )
    assert verify_plan(union).findings == ()


# -- PKB207: aggregate consistency -------------------------------------------


def test_pkb207_unknown_aggregate_function():
    with pytest.raises(PlanError):
        Aggregate(bound_scan(), ["a"], [("median", "b", "m")])
    plan = Aggregate(bound_scan(), ["a"], [("count", "b", "m")])
    plan.aggregates[0] = ("median", "b", "m")  # corrupt post-construction
    (finding,) = verify_plan(plan).findings
    assert finding.code == "PKB207"
    assert finding.path == "root"
    assert "unknown aggregate function 'median'" in finding.message


def test_pkb207_output_name_collision():
    plan = Aggregate(bound_scan(), ["a"], [("count", None, "a")])
    (finding,) = verify_plan(plan).findings
    assert finding.code == "PKB207"
    assert "output name collision" in finding.message
    assert "[a]" in finding.message


def test_pkb207_having_binds_against_aggregate_output():
    plan = Aggregate(
        bound_scan(),
        ["a"],
        [("count", None, "n")],
        having=Compare(">", Col("b"), Const(1)),  # b is not in the output
    )
    (finding,) = verify_plan(plan).findings
    assert finding.code == "PKB207"
    assert "having" in finding.message
    assert "aggregate output columns [a, n]" in finding.message


def test_aggregate_clean_when_well_formed():
    plan = Aggregate(
        bound_scan(),
        ["a"],
        [("count", None, "n")],
        having=Compare(">", Col("n"), Const(0)),
    )
    assert verify_plan(plan).findings == ()


# -- PKB208: bag/set discipline ----------------------------------------------


def test_pkb208_distinct_over_distinct():
    plan = Distinct(Distinct(bound_scan()))
    (finding,) = verify_plan(plan).findings
    assert finding.code == "PKB208" and finding.severity == "warning"
    assert finding.path == "root"
    assert "Distinct over Distinct" in finding.message


# -- nesting: paths address the offending node -------------------------------


def test_paths_descend_into_children():
    bad = Filter(bound_scan(), Compare("=", Col("ghost"), Const(1)))
    join = HashJoin(bound_scan(alias="L"), bad, ["L.a"], ["a"])
    (finding,) = [f for f in verify_plan(join).findings if f.code == "PKB203"]
    assert finding.path == "root.1"


# -- satellite: constructor errors name operator and columns ------------------


def test_values_constructor_error_lists_columns():
    with pytest.raises(PlanError) as info:
        Values(["a", "b"], [(1,)])
    message = str(info.value)
    assert "Values: row 0 has 1 values for 2 columns [a, b]" in message


def test_join_constructor_error_lists_keys():
    with pytest.raises(PlanError) as info:
        HashJoin(bound_scan(), bound_scan(), ["T.a", "T.b"], ["T.a"])
    assert "Hash Join: 2 left keys [T.a, T.b] vs 1 right keys [T.a]" in str(
        info.value
    )
    with pytest.raises(PlanError) as info:
        AntiJoin(bound_scan(), bound_scan(), [], ["T.a"])
    assert "Hash Anti Join: 0 left keys []" in str(info.value)


def test_unionall_constructor_error_lists_columns():
    with pytest.raises(PlanError) as info:
        UnionAll([Values(["a", "b"], []), Values(["a"], [])])
    message = str(info.value)
    assert "UnionAll: child 1 has 1 columns [a], expected 2 [a, b]" in message


# -- purity: verification never mutates the plan ------------------------------


def test_verify_does_not_bind_or_mutate():
    scan = Scan("TP")
    tables = {"TP": _typed_schema([("a", "int")])}
    verify_plan(scan, tables=tables)
    assert scan._columns is None  # still unbound
    with pytest.raises(PlanError):
        scan.output_columns
