"""Shared benchmark fixtures: the bench-scale ReVerb-Sherlock KB.

Workload sizes scale with $REPRO_BENCH_SCALE (default 1.0 ≈ laptop);
the paper's sizes are quoted in each benchmark's report for comparison.
"""

import pytest

from repro.datasets import ReVerbSherlockConfig, WorldConfig, generate

from reporting import scaled


def bench_config(seed: int = 0) -> ReVerbSherlockConfig:
    return ReVerbSherlockConfig(
        world=WorldConfig(
            n_countries=scaled(10),
            n_cities_per_country=8,
            n_districts_per_city=2,
            n_people=scaled(800),
            n_organizations=scaled(60),
            seed=seed,
        ),
        # error-source knobs scale with the population so the
        # Figure 7(b) mix stays calibrated
        ambiguous_groups=scaled(120),
        synonym_entities=scaled(8),
        n_bulk_relations=scaled(150),
        n_bulk_facts=scaled(600),
        seed=seed,
    )


@pytest.fixture(scope="session")
def reverb_kb():
    """The bench-scale ReVerb-Sherlock stand-in (shared by benchmarks)."""
    return generate(bench_config())
