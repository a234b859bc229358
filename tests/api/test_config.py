"""Config-object tests: validation, frozenness, backend resolution."""

import dataclasses

import pytest

from repro.api import (
    BackendConfig,
    GroundingConfig,
    InferenceConfig,
    MPPConfig,
    build_backend,
)
from repro.core import MPPBackend, SingleNodeBackend


class TestMPPConfig:
    def test_defaults_are_serial(self):
        config = MPPConfig()
        assert config.num_segments == 8
        assert config.num_workers == 0
        assert config.policy == "matviews"
        assert config.use_matviews

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MPPConfig().num_workers = 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_segments": 0},
            {"num_workers": -1},
            {"policy": "mirrored"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MPPConfig(**kwargs)

    def test_naive_policy(self):
        assert not MPPConfig(policy="naive").use_matviews


class TestBackendConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="oracle")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            BackendConfig().kind = "mpp"

    def test_mpp_rejects_the_row_engine(self):
        # the row engine lives on the single-node backend only: an MPP
        # backend asked for it must refuse, not half-honour the option
        with pytest.raises(ValueError, match="single-node"):
            BackendConfig(kind="mpp", executor="rows")
        assert BackendConfig(kind="single", executor="rows").executor == "rows"
        mpp = build_backend(BackendConfig(kind="mpp", executor="columnar"))
        assert mpp.executor_info()["engine"] == "columnar"

    def test_configs_are_hashable_and_reusable(self):
        config = BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=2))
        assert config == BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=2))
        assert len({config, config}) == 1
        first = build_backend(config)
        second = build_backend(config)
        assert first is not second  # one config, many independent backends


class TestInferenceConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            InferenceConfig(method="oracle")

    def test_unknown_engine_lists_registered(self):
        with pytest.raises(ValueError, match="registered: .*gibbs"):
            InferenceConfig(engine="oracle")

    def test_defaults(self):
        config = InferenceConfig()
        assert (config.method, config.num_sweeps, config.seed) == ("gibbs", 500, 0)
        assert (config.engine, config.sweeps) == ("gibbs", 500)
        assert config.num_workers == 0
        assert config.worker_timeout == 60.0
        assert config.shard_threshold == 512

    def test_legacy_kwargs_warn_once_each(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = InferenceConfig(method="bp", num_sweeps=64)
        deprecations = [w for w in caught if w.category is DeprecationWarning]
        assert len(deprecations) == 2
        assert (config.engine, config.sweeps) == ("bp", 64)

    def test_modern_kwargs_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = InferenceConfig(engine="bp", sweeps=64, num_workers=2)
        # legacy property reads stay silent too
        assert (config.method, config.num_sweeps) == ("bp", 64)

    def test_frozen_and_replaceable(self):
        config = InferenceConfig(sweeps=100, num_workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.sweeps = 7
        bumped = dataclasses.replace(config, sweeps=200)
        assert (bumped.sweeps, bumped.num_workers) == (200, 2)
        assert len({config, InferenceConfig(sweeps=100, num_workers=2)}) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sweeps": 0},
            {"num_workers": -1},
            {"shard_threshold": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InferenceConfig(**kwargs)


class TestGroundingConfig:
    def test_defaults(self):
        config = GroundingConfig()
        assert config.max_iterations is None
        assert config.apply_constraints
        assert not config.semi_naive


class TestBuildBackend:
    def test_default_is_single_node(self):
        assert isinstance(build_backend(), SingleNodeBackend)

    def test_string_shorthand(self):
        assert isinstance(build_backend("single"), SingleNodeBackend)
        assert isinstance(build_backend("mpp"), MPPBackend)

    def test_mpp_tuning_flows_through(self):
        backend = build_backend(
            BackendConfig(
                kind="mpp",
                mpp=MPPConfig(num_segments=3, num_workers=0, policy="naive"),
                name="tuned",
            )
        )
        assert backend.nseg == 3
        assert backend.num_workers == 0
        assert not backend.use_matviews
        assert backend.name == "tuned"

    def test_existing_backend_passthrough(self):
        backend = SingleNodeBackend()
        assert build_backend(backend) is backend

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            build_backend(42)
        with pytest.raises(ValueError):
            build_backend("oracle")
