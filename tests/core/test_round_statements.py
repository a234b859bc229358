"""A grounding round is one statement per step, whatever the number of
partitions: before Query 3 it truncates TNew, stages every partition's
candidates with one INSERT and merges them into TΠ with one more, and
Query 2 fills TΦ with one INSERT."""

import pytest

from repro import BackendConfig, GroundingConfig, MPPConfig, ProbKB
from repro.datasets import paper_kb

#: every Backend method that issues a statement
STATEMENTS = (
    "create_table",
    "bulkload",
    "query",
    "insert_rows",
    "insert_from",
    "insert_from_with_ids",
    "truncate",
    "delete_in",
)


def spy_steps(monkeypatch, probkb):
    """Log (step, method, table written or read) for every statement the
    grounder issues; the step is ("round", n), "query3" or "factors"."""
    log = []
    step = [None]
    grounder = probkb.grounder

    def within(name, label_of):
        real = getattr(grounder, name)

        def wrapped(*args, **kwargs):
            outer, step[0] = step[0], label_of(*args)
            try:
                return real(*args, **kwargs)
            finally:
                step[0] = outer

        monkeypatch.setattr(grounder, name, wrapped)

    within("ground_atoms_iteration", lambda number: ("round", number))
    within("apply_constraints", lambda: "query3")
    within("ground_factors", lambda: "factors")
    for name in STATEMENTS:
        real = getattr(probkb.backend, name)

        def spy(table, *args, _name=name, _real=real, **kwargs):
            log.append((step[0], _name, table))
            return _real(table, *args, **kwargs)

        monkeypatch.setattr(probkb.backend, name, spy)
    return log


@pytest.mark.parametrize("semi_naive", [False, True], ids=["naive", "semi-naive"])
@pytest.mark.parametrize(
    "backend",
    [BackendConfig(), BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=4))],
    ids=["single", "mpp"],
)
def test_a_round_and_query2_are_one_statement_per_step(monkeypatch, backend, semi_naive):
    config = GroundingConfig(semi_naive=semi_naive)
    with ProbKB(paper_kb(with_constraints=True), backend=backend, grounding=config) as probkb:
        assert len(probkb.rkb.nonempty_partitions) >= 2
        log = spy_steps(monkeypatch, probkb)
        result = probkb.ground()
    assert len(result.iterations) >= 2
    for stats in result.iterations:
        round_ = [(name, table) for step, name, table in log if step == ("round", stats.iteration)]
        assert round_ == [
            ("truncate", "TNew"),
            ("insert_from", "TNew"),
            ("insert_from_with_ids", "TP"),
        ]
    assert [(name, table) for step, name, table in log if step == "factors"] == [
        ("insert_from", "TF")
    ]
