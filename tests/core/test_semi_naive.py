"""Semi-naive (delta) grounding: identical closure, less work."""

import pytest

from repro import GroundingConfig, ProbKB
from repro.core import MPPBackend, SingleNodeBackend
from repro.core.sqlgen import id_range
from repro.relational import Scan

from .paper_example import EXPECTED_CLOSURE, paper_kb
from .test_grounding_oracle import random_setup

DELTA = GroundingConfig(semi_naive=True)


def triples(system):
    return {(f.relation, f.subject, f.object) for f in system.all_facts()}


def test_semi_naive_matches_naive_on_paper_example():
    naive = ProbKB(paper_kb(), backend="single")
    naive.ground()
    delta = ProbKB(paper_kb(), grounding=DELTA)
    delta.ground()
    assert triples(delta) == triples(naive) == EXPECTED_CLOSURE


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_semi_naive_matches_naive_on_random_kbs(seed):
    kb, _, _ = random_setup(seed)
    naive = ProbKB(kb, backend="single")
    naive.ground(max_iterations=30)
    delta = ProbKB(kb, grounding=DELTA)
    delta.ground(max_iterations=30)
    assert triples(delta) == triples(naive)
    assert delta.factor_count() == naive.factor_count()


def test_semi_naive_on_mpp_backend():
    kb, _, _ = random_setup(1)
    single = ProbKB(kb, grounding=DELTA)
    single.ground(max_iterations=30)
    mpp = ProbKB(kb, backend=MPPBackend(nseg=4), grounding=DELTA)
    mpp.ground(max_iterations=30)
    assert triples(mpp) == triples(single)


def test_semi_naive_scans_fewer_rows():
    """The point of the optimization: later iterations only join the
    delta, so total scanned row volume drops."""
    kb, _, _ = random_setup(2, n_facts=120, n_rules=10)
    naive = ProbKB(kb, backend="single")
    naive.ground(max_iterations=30)
    delta = ProbKB(kb, grounding=DELTA)
    delta.ground(max_iterations=30)
    naive_work = naive.backend.db.clock.rows_probed
    delta_work = delta.backend.db.clock.rows_probed
    assert delta_work < naive_work


def test_semi_naive_with_constraints():
    """Deleted facts leave the delta too: the closure under quality
    control matches the naive run."""
    from repro.datasets import ReVerbSherlockConfig, generate
    from repro.datasets.world import WorldConfig

    generated = generate(ReVerbSherlockConfig(world=WorldConfig(n_people=80), seed=3))
    naive = ProbKB(generated.kb, grounding=GroundingConfig(apply_constraints=True))
    naive.ground(max_iterations=8)
    delta = ProbKB(
        generated.kb,
        grounding=GroundingConfig(apply_constraints=True, semi_naive=True),
    )
    delta.ground(max_iterations=8)
    assert triples(delta) == triples(naive)


@pytest.mark.parametrize(
    "make_backend",
    [
        SingleNodeBackend,
        lambda: MPPBackend(nseg=4, use_matviews=True),
        lambda: MPPBackend(nseg=4, use_matviews=False),
    ],
    ids=["single", "mpp-matviews", "mpp-naive"],
)
def test_delta_is_the_id_range_the_round_merged_and_kept(make_backend):
    """The semi-naive delta is TΠ's rows with ``I >= delta_start``: after
    each round, on TΠ and on every copy of it a delta join scans, those
    are exactly the facts the round merged and Query 3 kept."""
    from repro.datasets import ReVerbSherlockConfig, generate
    from repro.datasets.world import WorldConfig

    generated = generate(ReVerbSherlockConfig(world=WorldConfig(n_people=80), seed=3))
    system = ProbKB(
        generated.kb,
        backend=make_backend(),
        grounding=GroundingConfig(apply_constraints=True, semi_naive=True),
    )
    rkb, backend = system.rkb, system.backend

    def fact_keys():
        return {row[1:6] for row in backend.query(Scan("TP")).rows}

    removed = 0
    for iteration in range(1, 9):
        before = fact_keys()
        first_id = rkb.next_fact_id
        stats = system.grounder.ground_atoms_iteration(iteration)
        kept = fact_keys() - before
        assert rkb.delta_start == first_id
        for columns in ([], ["x"], ["y"], ["x", "y"]):
            scan = backend.tpi_scan("T", columns)
            rows = backend.query(id_range(scan, rkb.delta_start)).rows
            assert {row[1:6] for row in rows} == kept
        removed += stats.removed_facts
        if stats.new_facts == 0:
            break
    assert removed > 0  # Query 3 did delete facts along the way
