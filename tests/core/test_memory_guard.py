"""A memory bound on the paper's blow-up regime.

Without constraints Query 2 is where grounding's memory goes (§6.1.1):
the factor join's intermediate results are far wider than the four
columns ``TF`` keeps.  This grounds the end-to-end benchmark's
``reverb_nosc`` KB at half its scale (constraints off, two iterations)
under ``tracemalloc`` and bounds the peak, so a join that copies every
column again, instead of carrying row indexes to the projection, fails
here rather than only in the benchmark's ``peak_rss_mb``.
"""

import tracemalloc

from repro.api import ExpansionSession, GroundingConfig
from repro.datasets import ReVerbSherlockConfig, WorldConfig, generate

#: the benchmark's ``reverb_nosc`` world, at 1.75 times the bench config
#: instead of 3.5 (``benchmarks/e2e/workloads.py``)
MULTIPLE = 1.75
DATASET_SEED = 4
#: traced peak of ``ground()``: ≈127 MB when a join copies every column
#: of its inputs, ≈67 MB when it hands on index vectors
PEAK_BOUND_MB = 90


def times(value: int) -> int:
    return max(1, int(round(value * MULTIPLE)))


def half_scale_kb():
    return generate(
        ReVerbSherlockConfig(
            world=WorldConfig(
                n_countries=times(10),
                n_cities_per_country=8,
                n_districts_per_city=2,
                n_people=times(800),
                n_organizations=times(60),
                seed=DATASET_SEED,
            ),
            ambiguous_groups=times(120),
            synonym_entities=times(8),
            n_bulk_relations=times(150),
            n_bulk_facts=times(600),
            seed=DATASET_SEED,
        )
    ).kb


def test_query2_blow_up_stays_under_the_memory_bound():
    grounding = GroundingConfig(apply_constraints=False, analysis="off")
    with ExpansionSession(half_scale_kb(), grounding=grounding) as session:
        tracemalloc.start()
        try:
            result = session.ground(2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.factors == 282_526  # the KB the bound was measured on
    assert peak / 2 ** 20 <= PEAK_BOUND_MB
