"""S1/S2 synthetic KB generators and TSV round-trips."""

import os
import re

import pytest

from repro import GroundingConfig, ProbKB
from repro.datasets import (
    ReVerbSherlockConfig,
    generate,
    load_kb,
    s1_kb,
    s2_kb,
    save_kb,
)
from repro.datasets.paper_example import paper_kb


@pytest.fixture(scope="module")
def base():
    return generate(ReVerbSherlockConfig(seed=2))


def test_s1_rule_count_exact(base):
    for n_rules in (10, len(base.kb.rules) + 50):
        kb = s1_kb(base, n_rules, seed=1)
        assert len(kb.rules) == n_rules
        assert len(kb.facts) == len(base.kb.facts)


def test_s1_synthetic_rules_are_classifiable(base):
    from repro.core import classify_clause

    kb = s1_kb(base, len(base.kb.rules) + 30, seed=1)
    for rule in kb.rules:
        classify_clause(rule)  # must not raise


def test_s1_deterministic(base):
    first = s1_kb(base, 100, seed=7)
    second = s1_kb(base, 100, seed=7)
    assert [str(r) for r in first.rules] == [str(r) for r in second.rules]


def test_s2_fact_count_exact(base):
    for n_facts in (100, len(base.kb.facts) + 500):
        kb = s2_kb(base, n_facts, seed=1)
        assert len(kb.facts) == n_facts
        assert len(kb.rules) == len(base.kb.rules)


def test_s2_random_edges_follow_fact_signatures(base):
    kb = s2_kb(base, len(base.kb.facts) + 200, seed=1)
    extra = kb.facts[len(base.kb.facts):]
    base_signatures = {
        (f.relation, f.subject_class, f.object_class) for f in base.kb.facts
    }
    assert all(
        (f.relation, f.subject_class, f.object_class) in base_signatures
        for f in extra
    )


def test_s2_grows_entity_pool(base):
    kb = s2_kb(base, len(base.kb.facts) + 2000, seed=1)
    assert len(kb.entities) > len(base.kb.entities)


def test_s2_truncates(base):
    kb = s2_kb(base, 50, seed=1)
    assert len(kb.facts) == 50


def test_tsv_roundtrip(base, tmp_path):
    directory = str(tmp_path / "kb")
    save_kb(base.kb, directory)
    loaded = load_kb(directory)
    assert loaded.stats() == base.kb.stats()
    assert {f.key for f in loaded.facts} == {f.key for f in base.kb.facts}
    assert sorted(str(r) for r in loaded.rules) == sorted(
        str(r) for r in base.kb.rules
    )
    assert {(c.relation, c.arg, c.degree) for c in loaded.constraints} == {
        (c.relation, c.arg, c.degree) for c in base.kb.constraints
    }


def test_roundtrip_grounds_identically(base, tmp_path):
    from repro import ProbKB

    directory = str(tmp_path / "kb2")
    save_kb(base.kb, directory)
    loaded = load_kb(directory)
    no_constraints = GroundingConfig(apply_constraints=False)
    original = ProbKB(base.kb, grounding=no_constraints)
    reloaded = ProbKB(loaded, grounding=no_constraints)
    res_a = original.ground(max_iterations=2)
    res_b = reloaded.ground(max_iterations=2)
    assert res_a.total_new_facts == res_b.total_new_facts


def _replace_line(number, text):
    def edit(lines):
        lines[number - 1] = text
        return lines

    return edit


# one defect each, in a save_kb(paper_kb()) directory: (file, edit of
# its lines, the message load_kb must give, file and line included)
MALFORMED_TSV = {
    "facts-trailing-blank-line": (
        "facts.tsv", lambda lines: lines + [""], "facts.tsv line 3: expected 6 fields, found 0"),
    "facts-5-fields": (
        "facts.tsv",
        _replace_line(1, "born_in\tRuth Gruber\tWriter\tNew York City\tCity"),
        "facts.tsv line 1: expected 6 fields, found 5"),
    "facts-nan-weight": (
        "facts.tsv",
        _replace_line(2, "born_in\tRuth Gruber\tWriter\tBrooklyn\tPlace\tnan"),
        "facts.tsv line 2: weight 'nan' is not finite"),
    "rules-atom-without-paren": (
        "rules.tsv",
        _replace_line(2, "1.53\t1.0\tlive_in(x,y)\tborn_in\tx:Writer,y:City"),
        "rules.tsv line 2: atom 'born_in': expected rel(a,b) with 2 arguments, found 0"),
    "rules-inf-weight": (
        "rules.tsv",
        _replace_line(1, "inf\t1.0\tlive_in(x,y)\tborn_in(x,y)\tx:Writer,y:Place"),
        "rules.tsv line 1: weight 'inf' is not finite"),
    "classes-blank-line": (
        "classes.tsv", lambda lines: lines[:1] + [""] + lines[1:],
        "classes.tsv line 2: expected 2 fields, found 0"),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_TSV))
def test_load_kb_names_file_and_line_of_malformed_tsv(defect, tmp_path):
    filename, edit, message = MALFORMED_TSV[defect]
    directory = str(tmp_path / "kb")
    save_kb(paper_kb(), directory)
    path = os.path.join(directory, filename)
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("".join(line + "\n" for line in edit(lines)))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_kb(directory, analysis="off")


def test_paper_kb_round_trips_unchanged(tmp_path):
    directory = str(tmp_path / "kb")
    kb = paper_kb()
    save_kb(kb, directory)
    loaded = load_kb(directory)
    assert [(f.key, f.weight) for f in loaded.facts] == [(f.key, f.weight) for f in kb.facts]
    assert [str(r) for r in loaded.rules] == [str(r) for r in kb.rules]
    assert loaded.classes == kb.classes
