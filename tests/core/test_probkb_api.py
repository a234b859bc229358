"""The ProbKB facade: backends, inference plumbing, results access."""

import pytest

from repro import BackendConfig, InferenceConfig, MPPConfig, ProbKB
from repro.core import MPPBackend, SingleNodeBackend, build_backend

from .paper_example import paper_kb


def test_second_ground_rebuilds_factors_instead_of_appending():
    """ground() reruns Query 2 into an emptied TΦ, as add_evidence and
    add_rules do: grounding twice leaves the factors and marginals of
    grounding once."""
    system = ProbKB(paper_kb())
    system.ground()
    factors = sorted(system.factor_rows(), key=repr)
    marginals = system.infer()
    system.ground()
    assert sorted(system.factor_rows(), key=repr) == factors
    assert system.infer() == marginals


def test_build_backend_resolution():
    assert isinstance(build_backend("single"), SingleNodeBackend)
    mpp = build_backend(
        BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=3, policy="naive"))
    )
    assert isinstance(mpp, MPPBackend)
    assert mpp.nseg == 3 and not mpp.use_matviews
    existing = SingleNodeBackend()
    assert build_backend(existing) is existing
    with pytest.raises(ValueError):
        build_backend("oracle")


def test_all_vs_inferred_facts():
    system = ProbKB(paper_kb(), backend="single")
    system.ground()
    all_facts = system.all_facts()
    inferred = system.inferred_facts()
    assert len(all_facts) == 7
    assert len(inferred) == 5
    assert all(fact.weight is None for fact in inferred)
    extracted = [f for f in all_facts if f.weight is not None]
    assert len(extracted) == 2


def test_new_facts_without_marginals():
    system = ProbKB(paper_kb(), backend="single")
    system.ground()
    results = system.new_facts()
    assert len(results) == 5
    assert all(probability is None for _, probability in results)


def test_new_facts_with_threshold():
    system = ProbKB(paper_kb(), backend="single")
    system.ground()
    marginals = system.infer(InferenceConfig(sweeps=600, seed=1))
    accepted = system.new_facts(marginals, min_probability=0.5)
    everything = system.new_facts(marginals, min_probability=0.0)
    assert len(accepted) <= len(everything) == 5
    for _, probability in accepted:
        assert probability >= 0.5


def test_bp_inference_method():
    system = ProbKB(paper_kb(), backend="single")
    system.ground()
    gibbs = system.infer(InferenceConfig(engine="gibbs", sweeps=3000, seed=2))
    bp = system.infer(InferenceConfig(engine="bp"))
    assert set(f.key for f in gibbs) == set(f.key for f in bp)
    for fact, probability in bp.items():
        assert gibbs[fact] == pytest.approx(probability, abs=0.12)


def test_unknown_inference_method():
    system = ProbKB(paper_kb(), backend="single")
    system.ground()
    with pytest.raises(ValueError):
        system.infer(InferenceConfig(engine="magic"))


def test_counts_and_clock():
    system = ProbKB(paper_kb(), backend="single")
    before = system.elapsed_seconds
    system.ground()
    assert system.fact_count() == 7
    assert system.factor_count() == 8
    assert system.elapsed_seconds > before
    assert system.load_seconds > 0


def test_lineage_accessor():
    system = ProbKB(paper_kb(), backend="single")
    system.ground()
    lineage = system.lineage()
    assert len(lineage.base_facts) == 2
    assert len(lineage.derived_facts()) == 5


def test_grounding_result_aggregates():
    system = ProbKB(paper_kb(), backend="single")
    result = system.ground()
    assert result.total_new_facts == 5
    assert result.total_seconds == pytest.approx(
        result.atoms_seconds + result.factor_seconds
    )
    assert result.load_seconds == system.load_seconds
