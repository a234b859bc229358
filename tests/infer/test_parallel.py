"""Componentwise Gibbs on the process pool: bit-identity and degrade.

Everything here spawns real worker processes, so the module carries the
``mpp`` marker and runs outside tier-1 (``make test-mpp`` /
``pytest -m mpp``).  The planner unit tests live here too so the whole
parallel-inference surface is in one place.
"""

import multiprocessing
import random

import pytest

from repro.api import ExpansionSession, InferenceConfig
from repro.datasets.paper_example import paper_kb
from repro.infer import componentwise_marginals, sample_components
from repro.infer.parallel import ParallelGibbsDriver, plan_batches

pytestmark = pytest.mark.mpp


def random_rows(seed, n_vars=60, n_extra_edges=25):
    """Random factor rows over several components.

    Chains the variables into a handful of runs, then sprinkles extra
    clauses (some with two-atom bodies) inside each run so components
    have cycles and varied factor arity.
    """
    rng = random.Random(seed)
    rows = []
    run_length = rng.randint(5, 12)
    runs = [
        list(range(start, min(start + run_length, n_vars)))
        for start in range(0, n_vars, run_length)
    ]
    for run in runs:
        for head, body in zip(run[1:], run[:-1]):
            rows.append((head, body, None, round(rng.uniform(0.3, 2.5), 3)))
    for _ in range(n_extra_edges):
        run = rng.choice(runs)
        if len(run) < 3:
            continue
        head, b1, b2 = rng.sample(run, 3)
        if rng.random() < 0.5:
            rows.append((head, b1, b2, round(rng.uniform(0.3, 2.0), 3)))
        else:
            rows.append((head, b1, None, round(rng.uniform(0.3, 2.0), 3)))
    return rows


# ------------------------------------------------------------------ planner


class TestBatchPlanner:
    def test_whole_components_packed_by_cost(self):
        snapshots = [
            (list(range(100)), []),
            ([100, 101], [(100, 101, None, 1.0)]),
            ([102, 103], [(102, 103, None, 1.0)]),
            ([104], []),
        ]
        assert plan_batches(snapshots, num_workers=2) == [[0], [1, 2, 3]]

    def test_planning_is_deterministic(self):
        snapshots = [(list(range(i * 10, i * 10 + 5)), []) for i in range(9)]
        first = plan_batches(snapshots, num_workers=4)
        assert first == plan_batches(snapshots, num_workers=4)
        assert sorted(i for batch in first for i in batch) == list(range(9))


# --------------------------------------------------------------- bit-identity


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_randomized_graphs_identical(self, graph_seed, num_workers):
        rows = random_rows(graph_seed)
        serial = componentwise_marginals(rows, num_sweeps=40, seed=11)
        with ParallelGibbsDriver(num_workers=num_workers) as driver:
            pooled = componentwise_marginals(rows, num_sweeps=40, seed=11, driver=driver)
            assert driver.info()["pooled"] is True
        assert pooled == serial  # bit-identical, not approximately equal

    def test_single_worker_is_inactive_and_identical(self):
        rows = random_rows(5)
        serial = componentwise_marginals(rows, num_sweeps=30, seed=4)
        with ParallelGibbsDriver(num_workers=1) as driver:
            assert not driver.active
            assert componentwise_marginals(rows, 30, 4, driver=driver) == serial
            assert driver.pool is None  # never spawned anything

    def test_session_marginals_identical_across_worker_counts(self):
        results = []
        for num_workers in (0, 2):
            config = InferenceConfig(sweeps=60, seed=3, num_workers=num_workers)
            with ExpansionSession(paper_kb(), inference=config) as session:
                session.ground()
                results.append(dict(session.infer()))
        assert results[0] == results[1]


# ------------------------------------------------------------------- degrade


class TestCrashDegrade:
    def test_worker_death_degrades_to_identical_serial(self):
        rows = random_rows(8)
        serial = componentwise_marginals(rows, num_sweeps=30, seed=6)
        driver = ParallelGibbsDriver(num_workers=2)
        try:
            assert componentwise_marginals(rows, 30, 6, driver=driver) == serial
            victim = next(iter(driver.pool._processes.values()))
            victim.terminate()
            victim.join()
            with pytest.warns(RuntimeWarning, match="inference worker pool lost"):
                survived = componentwise_marginals(rows, 30, 6, driver=driver)
            assert survived == serial
            assert driver.degraded
            assert not driver.active
            info = driver.info()
            assert info["degraded"] is True
            assert info["pooled"] is False
            # reset forgets the degrade and respawns a healthy pool
            driver.reset()
            assert componentwise_marginals(rows, 30, 6, driver=driver) == serial
            assert driver.info()["pooled"] is True
        finally:
            driver.close()


# ------------------------------------------------------------------ cleanup


def child_pids():
    return {process.pid for process in multiprocessing.active_children()}


class TestNoLeakedProcesses:
    def test_driver_close_reaps_its_workers(self):
        before = child_pids()
        driver = ParallelGibbsDriver(num_workers=2)
        componentwise_marginals(random_rows(3), 20, 1, driver=driver)
        workers = set(driver.pool._processes)
        assert workers and workers <= child_pids()
        driver.close()
        assert driver.pool is None
        assert child_pids() <= before

    def test_session_exit_reaps_its_workers(self):
        before = child_pids()
        config = InferenceConfig(sweeps=20, seed=0, num_workers=2)
        with ExpansionSession(paper_kb(), inference=config) as session:
            session.ground()
            session.infer()
            assert session.inference_info()["pooled"] is True
            assert child_pids() - before
        assert child_pids() <= before


# ------------------------------------------------------------ config plumbing


class TestConfigRoundTrips:
    def test_pooled_config_flows_to_inference_info(self):
        config = InferenceConfig(sweeps=30, seed=1, num_workers=2)
        with ExpansionSession(paper_kb(), inference=config) as session:
            session.ground()
            session.infer()
            info = session.inference_info()
        assert info["engine"] == "gibbs"
        assert info["num_workers"] == 2
        assert info["pooled"] is True
        assert info["colors"] >= 2
        assert info["wall_seconds"] > 0

    def test_snapshot_free_driver_reuse(self):
        """The session caches one engine (and pool) per config."""
        config = InferenceConfig(sweeps=20, seed=0, num_workers=2)
        with ExpansionSession(paper_kb(), inference=config) as session:
            session.ground()
            first = session.probkb.inference_driver()
            session.infer()
            second = session.probkb.inference_driver()
            assert first is second
            assert first.pool is not None
