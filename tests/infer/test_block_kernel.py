"""The block kernel against the scalar kernel: ``==``, not approximately.

``sample_components`` samples a batch of components in one numpy pass
(:func:`repro.infer.gibbs.block_marginals`); each component alone on
``GibbsSampler.run_stream`` is the oracle.  Every test runs twice: the
whole batch in one block, and each component in a block of its own (what
a delta flush that touches one component samples).
"""

import random

import pytest

from repro.api import ExpansionSession, GroundingConfig
from repro.datasets import ReVerbSherlockConfig, WorldConfig, generate
from repro.infer.components import (
    ComponentSample,
    all_snapshots,
    component_sampler,
    sample_components,
)


@pytest.fixture(params=[False, True], ids=["numpy", "no-numpy"])
def one_by_one(request):
    """One block for the batch, then one block per component.  (The ids
    are the twins' names from when the second one ran without numpy.)"""
    return request.param


def block_sample(snapshots, num_sweeps, seed, one_by_one):
    """``sample_components`` over the batch, or over each component in
    turn with the results merged."""
    if not one_by_one:
        return sample_components(snapshots, num_sweeps, seed)
    samples = [sample_components([snapshot], num_sweeps, seed) for snapshot in snapshots]
    marginals = {}
    for sample in samples:
        marginals.update(sample.marginals)
    colors = max((sample.colors for sample in samples), default=0)
    return ComponentSample(marginals, sum(sample.components for sample in samples), colors)


def scalar_marginals(snapshots, num_sweeps, seed):
    """Each component on its own scalar chain, merged."""
    marginals = {}
    for members, rows in snapshots:
        sampler = component_sampler(members, rows, seed)
        marginals.update(sampler.run_stream(num_sweeps).marginals)
    return marginals


def random_weight(rng):
    """Mostly moderate weights of either sign, some far beyond ±35."""
    return rng.choice(
        [rng.uniform(-3.0, 3.0), rng.uniform(-60.0, -36.0), rng.uniform(36.0, 60.0)]
    )


def random_snapshots(seed):
    """Components of many shapes in one block.

    Sizes run from singletons to 13 variables, so the components have
    different colour counts.  Each is a chain (unit and 2-atom clauses)
    plus random clauses whose atoms are drawn with replacement, so some
    have three atoms and some repeat a variable (head == body atom, or
    both body atoms equal).  Member ids have gaps, like fact ids.
    """
    rng = random.Random(seed)
    snapshots = []
    next_id = 1
    for _ in range(rng.randint(8, 14)):
        size = rng.choice([1, 1, 2, 3, 5, 8, 13])
        members = list(range(next_id, next_id + size))
        next_id += size + rng.randint(0, 3)
        rows = [(var, None, None, random_weight(rng)) for var in members if rng.random() < 0.7]
        rows += [
            (head, body, None, random_weight(rng))
            for head, body in zip(members[1:], members[:-1])
        ]
        for _ in range(2 * size):
            head, body1, body2 = (rng.choice(members) for _ in range(3))
            rows.append((head, body1, body2 if rng.random() < 0.6 else None, random_weight(rng)))
        snapshots.append((members, rows))
    return snapshots


@pytest.mark.parametrize("sweeps", [0, 1, 2, 5, 50])
@pytest.mark.parametrize("graph_seed", [0, 1, 2])
def test_random_blocks_match_the_scalar_kernel(one_by_one, graph_seed, sweeps):
    snapshots = random_snapshots(graph_seed)
    sample = block_sample(snapshots, sweeps, graph_seed + 11, one_by_one)
    assert sample.marginals == scalar_marginals(snapshots, sweeps, seed=graph_seed + 11)
    assert sample.components == len(snapshots)


def test_random_blocks_cover_the_hard_cases():
    """The generator really produces what the equality test claims."""
    snapshots = [snap for seed in (0, 1, 2) for snap in random_snapshots(seed)]
    rows = [row for _, block_rows in snapshots for row in block_rows]
    assert any(len(members) == 1 for members, _ in snapshots)
    assert any(row[2] is not None for row in rows)
    assert any(row[1] is not None and row[0] in row[1:3] for row in rows)
    assert any(row[3] < -35 for row in rows) and any(row[3] > 35 for row in rows)
    for seed in (0, 1, 2):
        colors = {
            component_sampler(members, block_rows, 0).num_colors
            for members, block_rows in random_snapshots(seed)
        }
        assert len(colors) > 1


def test_empty_block(one_by_one):
    sample = block_sample([], 10, 0, one_by_one)
    assert (sample.marginals, sample.components, sample.colors) == ({}, 0, 0)


@pytest.fixture(scope="module")
def reverb_sc_rows():
    """TΦ of the benchmark's ``reverb_sc`` workload at 1/4 scale: its
    generator config at multiple 0.75, constraints on, to closure."""

    def times(value):
        return max(1, int(round(value * 0.75)))

    config = ReVerbSherlockConfig(
        world=WorldConfig(
            n_countries=times(10),
            n_cities_per_country=8,
            n_districts_per_city=2,
            n_people=times(800),
            n_organizations=times(60),
            seed=4,
        ),
        ambiguous_groups=times(120),
        synonym_entities=times(8),
        n_bulk_relations=times(150),
        n_bulk_facts=times(600),
        seed=4,
    )
    kb = generate(config).kb
    with ExpansionSession(kb, grounding=GroundingConfig(analysis="off")) as session:
        session.apply_constraints()
        session.ground()
        return session.factor_rows()


def test_reverb_sc_graph_matches_the_scalar_kernel(one_by_one, reverb_sc_rows):
    snapshots = all_snapshots(reverb_sc_rows)
    assert len(snapshots) > 100
    sample = block_sample(snapshots, 20, 0, one_by_one)
    assert sample.marginals == scalar_marginals(snapshots, 20, seed=0)
