"""Config-object tests: validation, frozenness, backend resolution."""

import dataclasses
import importlib
import os
import subprocess
import sys

import pytest

import repro.analyze
import repro.api
import repro.core
import repro.infer
import repro.relational
import repro.serve
from repro import ProbKB
from repro.api import (
    BackendConfig,
    GroundingConfig,
    InferenceConfig,
    MPPConfig,
    build_backend,
)
from repro.core import MPPBackend, SingleNodeBackend
from repro.datasets.paper_example import paper_kb
from repro.mpp.workers import WorkerPool
from repro.relational import ColumnarExecutor, Database
from repro.serve import QueryCache, ServeConfig, ServiceConfig, load_snapshot


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

    def test_configs_are_hashable_and_reusable(self):
        config = BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=2))
        assert config == BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=2))
        assert len({config, config}) == 1
        first = build_backend(config)
        second = build_backend(config)
        assert first is not second  # one config, many independent backends


class TestInferenceConfig:
    def test_unknown_engine_lists_registered(self):
        with pytest.raises(ValueError, match="use one of .*'bp'.*'gibbs'"):
            InferenceConfig(engine="oracle")

    def test_defaults(self):
        config = InferenceConfig()
        assert (config.engine, config.sweeps, config.seed) == ("gibbs", 500, 0)
        assert [f.name for f in dataclasses.fields(config)] == [
            "engine", "sweeps", "seed",
        ]

    def test_modern_kwargs_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = InferenceConfig(engine="bp", sweeps=64, seed=3)
        assert (config.engine, config.sweeps, config.seed) == ("bp", 64, 3)

    def test_frozen_and_replaceable(self):
        config = InferenceConfig(sweeps=100, seed=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.sweeps = 7
        bumped = dataclasses.replace(config, sweeps=200)
        assert (bumped.sweeps, bumped.seed) == (200, 2)
        assert len({config, InferenceConfig(sweeps=100, seed=2)}) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sweeps": 0},
            {"sweeps": -1},
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

    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            GroundingConfig(max_iterations=cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_every_grounding_path_rejects_a_cap_below_one(self, cap):
        """``ground``, ``add_evidence``, ``add_rules`` and the delta
        flush all raise instead of grounding nothing, and leave the KB
        as it was."""
        kb = paper_kb()
        fact, rule = next(iter(kb.facts)), kb.rules[0]
        with repro.api.ExpansionSession(kb) as session:
            session.ground()
            facts, rules = session.fact_count(), len(session.kb.rules)
            for call in (
                lambda: session.ground(cap),
                lambda: session.add_evidence([fact], max_iterations=cap),
                lambda: session.add_rules([rule], max_iterations=cap),
                lambda: session.expand_delta([fact], cap),
            ):
                with pytest.raises(ValueError, match="max_iterations must be >= 1"):
                    call()
            assert (session.fact_count(), len(session.kb.rules)) == (facts, rules)


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

    def test_probkb_string_backend_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system = ProbKB(paper_kb(), backend="single")
        assert isinstance(system.backend, SingleNodeBackend)

    def test_probkb_bad_backend_type_rejected(self):
        with pytest.raises(TypeError):
            ProbKB(paper_kb(), backend=3.14)


def _cli(*argv):
    def parse():
        from repro.cli import build_parser

        build_parser().parse_args(list(argv))

    return parse


def _build_serve_service_expansion():
    from repro.cli import build_serve_service

    build_serve_service(None, expansion="delta")


#: every pre-config spelling and every engine-selector spelling, with
#: how it fails now that the config objects are the only spelling
LEGACY_SPELLINGS = {
    "ProbKB(nseg=)": (lambda: ProbKB(paper_kb(), backend="mpp", nseg=2), TypeError),
    "ProbKB(use_matviews=)": (lambda: ProbKB(paper_kb(), use_matviews=False), TypeError),
    "ProbKB(apply_constraints=)": (
        lambda: ProbKB(paper_kb(), apply_constraints=False), TypeError),
    "ProbKB(semi_naive=)": (lambda: ProbKB(paper_kb(), semi_naive=True), TypeError),
    "infer(method=)": (lambda: ProbKB(paper_kb()).infer(method="bp"), TypeError),
    "infer(num_sweeps=)": (lambda: ProbKB(paper_kb()).infer(num_sweeps=5), TypeError),
    "infer(seed=)": (lambda: ProbKB(paper_kb()).infer(seed=1), TypeError),
    "infer('bp')": (lambda: ProbKB(paper_kb()).infer("bp"), AttributeError),
    "materialize_marginals(method=)": (
        lambda: ProbKB(paper_kb()).materialize_marginals(method="bp"), TypeError),
    "materialize_marginals(num_sweeps=)": (
        lambda: ProbKB(paper_kb()).materialize_marginals(num_sweeps=5), TypeError),
    "materialize_marginals(seed=)": (
        lambda: ProbKB(paper_kb()).materialize_marginals(seed=1), TypeError),
    "InferenceConfig(method=)": (lambda: InferenceConfig(method="bp"), TypeError),
    "InferenceConfig(num_sweeps=)": (lambda: InferenceConfig(num_sweeps=5), TypeError),
    "InferenceConfig.method": (lambda: InferenceConfig().method, AttributeError),
    "InferenceConfig.num_sweeps": (lambda: InferenceConfig().num_sweeps, AttributeError),
    "ServiceConfig(num_sweeps=)": (lambda: ServiceConfig(num_sweeps=5), TypeError),
    "ServiceConfig(seed=)": (lambda: ServiceConfig(seed=1), TypeError),
    "load_snapshot(nseg=)": (lambda: load_snapshot("kb.json", nseg=2), TypeError),
    "make_backend": (lambda: repro.core.make_backend, AttributeError),
    "repro infer --method": (_cli("infer", "--kb", "kb", "--method", "bp"), SystemExit),
    "BackendConfig(executor=)": (lambda: BackendConfig(executor="rows"), TypeError),
    "SingleNodeBackend(executor=)": (
        lambda: SingleNodeBackend(executor="rows"), TypeError),
    "Database(executor=)": (lambda: Database("d", executor="rows"), TypeError),
    "Database.executor_name": (lambda: Database("d").executor_name, AttributeError),
    "resolve_executor": (lambda: repro.relational.resolve_executor, AttributeError),
    "make_executor": (lambda: repro.relational.make_executor, AttributeError),
    "EXECUTOR_ENGINES": (lambda: repro.relational.EXECUTOR_ENGINES, AttributeError),
    # serve settings no caller set, and the second inference thread
    "ServiceConfig(cache_policy=)": (lambda: ServiceConfig(cache_policy="lfu"), TypeError),
    "ServiceConfig(cache_ttl=)": (lambda: ServiceConfig(cache_ttl=5.0), TypeError),
    "ServiceConfig(infer_on_flush=)": (
        lambda: ServiceConfig(infer_on_flush=True), TypeError),
    "QueryCache(policy=)": (lambda: QueryCache(4, policy="lfu"), TypeError),
    "ServeConfig(expansion=)": (lambda: ServeConfig(expansion="delta"), TypeError),
    "PROBKB_SERVE_EXPANSION": (
        lambda: ServeConfig.from_env({"PROBKB_SERVE_EXPANSION": "delta"}).expansion,
        AttributeError),
    "build_serve_service(expansion=)": (_build_serve_service_expansion, TypeError),
    "repro serve --cache-policy": (_cli("serve", "--cache-policy", "lfu"), SystemExit),
    "repro serve --cache-ttl": (_cli("serve", "--cache-ttl", "5"), SystemExit),
    "repro serve --infer-on-flush": (_cli("serve", "--infer-on-flush"), SystemExit),
    "DeltaPipeline": (lambda: repro.serve.DeltaPipeline, AttributeError),
    # the inference process pool the block kernel made redundant
    "InferenceConfig(num_workers=)": (lambda: InferenceConfig(num_workers=2), TypeError),
    "repro infer --infer-workers": (
        _cli("infer", "--kb", "kb", "--infer-workers", "2"), SystemExit),
    "ProbKB.inference_driver": (lambda: ProbKB(paper_kb()).inference_driver, AttributeError),
    "repro.infer.parallel": (lambda: importlib.import_module("repro.infer.parallel"),
                             ImportError),
    # the MPP pool's reply timeout: MPPDatabase / MPPBackend keep the keyword
    "MPPConfig(worker_timeout=)": (lambda: MPPConfig(worker_timeout=30.0), TypeError),
    "WorkerPool(start_method=)": (lambda: WorkerPool(2, 1, start_method="spawn"), TypeError),
    # the engine plugin layer: ProbKB calls the gibbs and bp kernels itself
    "repro.infer.registry": (lambda: importlib.import_module("repro.infer.registry"),
                             ImportError),
    "register_engine": (lambda: repro.api.register_engine, AttributeError),
    "registered_engines": (lambda: repro.api.registered_engines, AttributeError),
    "build_engine": (lambda: repro.api.build_engine, AttributeError),
    "InferenceEngine": (lambda: repro.api.InferenceEngine, AttributeError),
    "ProbKB.inference_engine": (lambda: ProbKB(paper_kb()).inference_engine, AttributeError),
    # library surface no product path called: MAP inference, multi-chain
    # diagnostics, the Gibbs wrapper, the row engine (now a test
    # reference) and the benchmark helpers (now benchmarks/reporting.py)
    "repro.infer.map_inference": (
        lambda: importlib.import_module("repro.infer.map_inference"), ImportError),
    "repro.relational.executor": (
        lambda: importlib.import_module("repro.relational.executor"), ImportError),
    "repro.bench": (lambda: importlib.import_module("repro.bench"), ImportError),
    "icm_map": (lambda: repro.infer.icm_map, AttributeError),
    "annealed_map": (lambda: repro.infer.annealed_map, AttributeError),
    "exact_map": (lambda: repro.infer.exact_map, AttributeError),
    "gibbs_marginals": (lambda: repro.infer.gibbs_marginals, AttributeError),
    "gibbs_with_diagnostics": (lambda: repro.infer.gibbs_with_diagnostics, AttributeError),
    # the analyzer plans for the live Backend; the verify gate is the
    # PROBKB_VERIFY_PLANS env var alone; the latency ring size is fixed
    "PlanEnvironment": (lambda: repro.analyze.PlanEnvironment, AttributeError),
    "BackendConfig(verify_plans=)": (lambda: BackendConfig(verify_plans=True), TypeError),
    "Database(verify_plans=)": (lambda: Database("d", verify_plans=True), TypeError),
    "ServiceConfig(latency_window=)": (lambda: ServiceConfig(latency_window=64), TypeError),
}


@pytest.mark.parametrize("spelling", sorted(LEGACY_SPELLINGS))
def test_legacy_spellings_are_gone(spelling):
    call, error = LEGACY_SPELLINGS[spelling]
    with pytest.raises(error):
        call()


def test_executor_env_var_changes_nothing(monkeypatch):
    monkeypatch.setenv("PROBKB_EXECUTOR", "rows")
    backend = build_backend()
    assert type(backend.db._executor()) is ColumnarExecutor
    assert backend.executor_info()["engine"] == "columnar"


def test_production_imports_do_not_load_the_reference_executor():
    """The row ``Executor`` is a test reference under ``tests/``; no
    ``repro.relational.executor`` module exists for production code to
    pull in (it used to be the base class of ``ColumnarExecutor`` and
    the home of ``Result``).  The engine takes
    plan trees only: every SQL-named thing it exposes is an output
    (renderer, sqlite mirror), no database has a method that reads SQL,
    and the operator set is the nine the grounder builds.  The import
    graph: ``repro.infer`` stands alone (``repro.delta`` is its client,
    loaded only by the layers above, and ``repro.infer`` loads no
    ``repro.mpp`` module once the top-level package's own imports are
    set aside), and nothing loads ``networkx``."""
    code = (
        "import importlib.util, sys, repro.infer\n"
        "print([m for m in sys.modules if m.startswith('repro.delta')])\n"
        "import repro, repro.api, repro.cli, repro.core, repro.mpp, "
        "repro.relational, repro.serve\n"
        "from repro.relational import Database, PlanNode\n"
        "print(importlib.util.find_spec('repro.relational.executor') is None)\n"
        "print(sorted(n for n in dir(repro.relational) if 'sql' in n.lower()))\n"
        "print([n for db in (Database, repro.mpp.MPPDatabase) for n in dir(db)"
        " if 'sql' in n.lower()])\n"
        "print(sorted(n for n, v in vars(repro.relational).items()"
        " if isinstance(v, type) and issubclass(v, PlanNode)))\n"
        "print('networkx' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.splitlines() == [
        "[]",
        "True",
        "['SqliteMirror', 'sqlite_bridge', 'sqltext', 'to_sql']",
        "[]",
        "['Aggregate', 'AntiJoin', 'Distinct', 'Filter', 'HashJoin', 'PlanNode', "
        "'Project', 'Scan', 'UnionAll', 'Values']",
        "False",
    ]
    assert not hasattr(repro.relational, "Executor")
    # a bare ``repro`` package, so only repro.infer's own imports run
    bare = (
        "import importlib.util, sys, types\n"
        "package = types.ModuleType('repro')\n"
        "package.__path__ = list("
        "importlib.util.find_spec('repro').submodule_search_locations)\n"
        "sys.modules['repro'] = package\n"
        "import repro.infer\n"
        "print([m for m in sys.modules if m.startswith('repro.mpp')])"
    )
    completed = subprocess.run(
        [sys.executable, "-c", bare],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.splitlines() == ["[]"]
