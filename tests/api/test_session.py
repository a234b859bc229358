"""ExpansionSession facade + typed pipeline results (serial backends)."""

import warnings

import pytest

from repro import ExpansionSession, Fact, ProbKB
from repro.api import (
    BackendConfig,
    ConstraintResult,
    GroundingConfig,
    GroundingResult,
    InferenceConfig,
    InferenceResult,
    MPPConfig,
)
from repro.datasets.paper_example import paper_kb


@pytest.fixture
def session():
    with ExpansionSession(paper_kb()) as active:
        yield active


def test_new_api_paths_never_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        config = BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=2))
        with ExpansionSession(
            paper_kb(),
            backend=config,
            grounding=GroundingConfig(max_iterations=5),
            inference=InferenceConfig(sweeps=50, seed=1),
        ) as session:
            session.ground()
            session.apply_constraints()
            session.infer()
            session.materialize_marginals()
            session.query(min_probability=0.0)


class TestGroundingResult:
    def test_typed_result_fields(self, session):
        result = session.ground()
        assert isinstance(result, GroundingResult)
        assert result.converged
        assert result.rows_touched > 0
        assert result.elapsed_seconds == result.total_seconds > 0

    def test_max_iterations_comes_from_config(self):
        with ExpansionSession(
            paper_kb(), grounding=GroundingConfig(max_iterations=1)
        ) as session:
            result = session.ground()
        assert len(result.iterations) == 1


class TestConstraintResult:
    def test_is_the_removed_count(self):
        with ExpansionSession(paper_kb(with_constraints=True)) as session:
            session.ground()
            result = session.apply_constraints()
        assert isinstance(result, ConstraintResult)
        assert isinstance(result, int)
        assert result == result.removed == result.rows_touched
        assert result + 0 == int(result)  # arithmetic like the old int
        assert result.elapsed_seconds >= 0.0
        assert sum(result.per_type.values()) == int(result)

    def test_empty_constraints(self, session):
        result = session.apply_constraints()
        assert result == 0
        assert result.per_type == {}


class TestInferenceResult:
    def test_is_the_marginals_dict(self, session):
        session.ground()
        result = session.infer(InferenceConfig(sweeps=50, seed=2))
        assert isinstance(result, InferenceResult)
        assert isinstance(result, dict)
        assert result.method == "gibbs"
        assert result.num_sweeps == 50
        assert result.seed == 2
        assert result.elapsed_seconds > 0
        assert result.num_variables > 0
        assert result.num_factors > 0
        assert result.rows_touched == len(result)
        for probability in result.values():
            assert 0.0 <= probability <= 1.0
        # old dict-style consumers still work
        assert session.new_facts(result) == session.new_facts(dict(result))

    def test_session_default_config_used(self):
        with ExpansionSession(
            paper_kb(), inference=InferenceConfig(sweeps=25, seed=9)
        ) as session:
            session.ground()
            result = session.infer()
        assert (result.num_sweeps, result.seed) == (25, 9)


class TestSessionLifecycle:
    def test_executor_info_serial(self, session):
        assert session.executor_info()["mode"] == "single-node"

    def test_query_and_counts(self, session):
        session.ground()
        assert session.fact_count() == len(session.all_facts())
        everything = session.query()
        assert len(everything) == session.fact_count()
        assert session.generation >= 1

    def test_serve_reports_executor(self, session):
        session.ground()
        service = session.serve()
        stats = service.stats()
        assert stats["executor"]["mode"] == "single-node"
        assert stats["executor"]["workers"] == 0

    def test_snapshot_round_trip(self, session, tmp_path):
        session.ground()
        path = session.save_snapshot(str(tmp_path / "kb.json"))
        warm = ExpansionSession.from_snapshot(path)
        assert warm.fact_count() == session.fact_count()
        warm.close()

    def test_probkb_context_manager(self):
        with ProbKB(paper_kb()) as system:
            system.ground()
            assert system.fact_count() > 0


#: everything ExpansionSession defines; the rest it inherits
SESSION_ADDITIONS = {
    "from_snapshot",
    "probkb",
    "executor_info",
    "expand_delta",
    "analyze",
    "query",
    "serve",
    "save_snapshot",
}


class TestOneImplementation:
    """The session is a ProbKB, not a wrapper around one."""

    def test_session_is_its_own_probkb(self, session):
        assert isinstance(session, ProbKB)
        assert session.probkb is session

    def test_session_redefines_nothing_of_probkb(self):
        defined = {
            name for name in vars(ExpansionSession) if not name.startswith("__")
        }
        assert defined - {"_delta"} == SESSION_ADDITIONS
        assert defined.isdisjoint(vars(ProbKB))
        for name, member in vars(ProbKB).items():
            if callable(member):  # every method, __init__/__enter__ included
                assert getattr(ExpansionSession, name) is member, name

    def test_from_snapshot_builds_a_session_that_expands(self, session, tmp_path):
        session.ground()
        session.materialize_marginals()
        path = session.save_snapshot(str(tmp_path / "kb.json"))
        with ExpansionSession.from_snapshot(
            path, inference=InferenceConfig(sweeps=20, seed=3)
        ) as warm:
            assert type(warm) is ExpansionSession
            assert warm.inference_config.sweeps == 20
            assert warm.generation == session.generation
            assert dict(warm.query()) == dict(session.query())
            result = warm.expand_delta(
                [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.9)]
            )
            assert result.new_facts >= 1
            assert ("live_in", "Saul Bellow", "Brooklyn") in {
                (f.relation, f.subject, f.object) for f in warm.all_facts()
            }
