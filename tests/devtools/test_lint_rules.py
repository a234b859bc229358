"""Per-rule fixture corpus: each RC code has a file that triggers it."""

from pathlib import Path

import pytest

from repro.devtools import LintUsageError, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = [
    ("RC001", FIXTURES / "rc001_guard.py", 2),
    ("RC002", FIXTURES / "rc002_inversion.py", 1),
    ("RC003", FIXTURES / "infer" / "rc003_kernel.py", 4),
    ("RC004", FIXTURES / "rc004_block.py", 1),
    ("RC005", FIXTURES / "rc005_thread.py", 1),
    ("RC006", FIXTURES / "rc006_clock.py", 2),
    ("RC007", FIXTURES / "rc007_unknown.py", 1),
    ("RC008", FIXTURES / "rc008_unused.py", 1),
    ("RC009", FIXTURES / "rc009_plannode.py", 2),
]


@pytest.mark.parametrize(
    "code,fixture,count", RULE_FIXTURES, ids=[c for c, _, _ in RULE_FIXTURES]
)
def test_fixture_triggers_exactly_its_rule(code, fixture, count):
    report = lint_paths([fixture])
    assert {f.code for f in report.findings} == {code}
    assert len(report.findings) == count
    for finding in report.findings:
        assert finding.path == str(fixture)
        assert finding.line > 0
        assert finding.render().startswith(f"{finding.path}:{finding.line}: {code}")


def test_clean_fixture_has_no_findings():
    report = lint_paths([FIXTURES / "clean.py"])
    assert report.findings == ()
    assert report.files_scanned == 1


def test_directory_scan_covers_the_whole_corpus():
    report = lint_paths([FIXTURES])
    assert set(report.codes) == {f"RC00{i}" for i in range(1, 10)}


def test_rc009_is_silent_inside_the_planners(tmp_path):
    planner_dir = tmp_path / "mpp"
    planner_dir.mkdir()
    source = (
        "from repro.mpp.plannodes import PhysicalNode\n"
        "\n"
        "def plan():\n"
        "    return PhysicalNode('Seq Scan', 'on TP')\n"
    )
    for allowed in ("static_planner.py", "cluster.py"):
        path = planner_dir / allowed
        path.write_text(source)
        assert lint_paths([path]).findings == ()
    # the placement rules the two walkers share build no nodes themselves
    for name in ("workers.py", "placement.py"):
        elsewhere = planner_dir / name
        elsewhere.write_text(source)
        (finding,) = lint_paths([elsewhere]).findings
        assert finding.code == "RC009"
        assert "planner" in finding.message


def test_rc003_covers_the_segment_operators_not_the_exchange():
    source = "import time\n\ndef deadline():\n    return time.monotonic() + 1.0\n"
    for kernel in (
        "relational/operators.py", "mpp/segments.py", "mpp/placement.py"
    ):
        (finding,) = lint_source(source, f"src/repro/{kernel}").findings
        assert finding.code == "RC003"
    # placement decisions may not be keyed on object identity either
    keyed = "def choice(plan, choices):\n    return choices[id(plan)]\n"
    (finding,) = lint_source(keyed, "src/repro/mpp/placement.py").findings
    assert finding.code == "RC003"
    # the queue exchange keeps its wall-clock deadlines outside the kernels
    assert lint_source(source, "src/repro/mpp/workers.py").findings == ()


def test_rc001_names_the_lock_and_line():
    report = lint_paths([FIXTURES / "rc001_guard.py"])
    messages = [f.message for f in report.findings]
    assert all("self._lock" in message for message in messages)
    assert sorted(f.line for f in report.findings) == [22, 25]


def test_rc002_message_spells_out_the_cycle():
    (finding,) = lint_paths([FIXTURES / "rc002_inversion.py"]).findings
    assert "debit_lock" in finding.message and "credit_lock" in finding.message
    assert "->" in finding.message


def test_suppression_silences_a_finding_and_counts_as_used():
    source = (
        "import time\n"
        "\n"
        "def f(started):\n"
        "    return time.time() - started  # lint: disable=RC006 legacy api\n"
    )
    assert lint_source(source).findings == ()


def test_suppression_only_applies_to_its_own_line():
    source = (
        "import time\n"
        "\n"
        "def f(started):  # lint: disable=RC006\n"
        "    return time.time() - started\n"
    )
    codes = [f.code for f in lint_source(source).findings]
    # the finding survives AND the misplaced suppression is reported unused
    assert codes == ["RC008", "RC006"] or sorted(codes) == ["RC006", "RC008"]


def test_hygiene_codes_are_unsuppressible():
    source = "x = 1  # lint: disable=RC999,RC007,RC008\n"
    codes = sorted(f.code for f in lint_source(source).findings)
    # RC999 -> RC007; RC007/RC008 silence nothing -> RC008 each, and the
    # suppression cannot silence its own hygiene findings
    assert codes == ["RC007", "RC008", "RC008"]


def test_multiple_codes_in_one_comment():
    source = (
        "import time\n"
        "\n"
        "def f(started):\n"
        "    return time.time() > started  # lint: disable=RC001,RC006\n"
    )
    codes = [f.code for f in lint_source(source).findings]
    assert codes == ["RC008"]  # RC006 used, RC001 unused


def test_holds_annotation_counts_as_guarded():
    source = (
        "import threading\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.items = []  # guarded by: self._lock\n"
        "\n"
        "    # holds: self._lock\n"
        "    def compact(self):\n"
        "        self.items.sort()\n"
    )
    assert lint_source(source).findings == ()


def test_derived_context_manager_matches_the_guard():
    source = (
        "import threading\n"
        "\n"
        "class RW:\n"
        "    def write_locked(self):\n"
        "        raise NotImplementedError\n"
        "\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self.lock = RW()\n"
        "        self.facts = []  # guarded by: self.lock\n"
        "\n"
        "    def add(self, fact):\n"
        "        with self.lock.write_locked():\n"
        "            self.facts.append(fact)\n"
    )
    assert lint_source(source).findings == ()


def test_missing_path_is_a_usage_error():
    with pytest.raises(LintUsageError):
        lint_paths([FIXTURES / "no_such_file.py"])


def test_syntax_error_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    with pytest.raises(LintUsageError):
        lint_paths([bad])
