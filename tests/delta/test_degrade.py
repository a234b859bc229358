"""Crash -> serial degrade on the delta inference path, in-process.

The real worker-death version lives in ``tests/infer/test_parallel.py``
behind the ``mpp`` marker; here the pool failure is injected, so tier-1
covers the contract: the degrade warns once, the batch still completes
with bit-identical marginals, and the driver stays serial until reset.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.infer import sample_components
from repro.infer.parallel import ParallelGibbsDriver

SNAPSHOTS = [
    ([0, 1, 2], [(1, 0, None, 1.2), (2, 1, None, 0.7), (0, None, None, 0.9)]),
    ([4, 5], [(5, 4, None, 1.1), (4, None, None, 0.6)]),
]
SWEEPS = 50
SEED = 3


def crashing(*args, **kwargs):
    raise BrokenProcessPool("inference worker 1 died (exitcode=-9)")


def test_crash_warns_and_falls_back_to_identical_serial(monkeypatch):
    reference = sample_components(SNAPSHOTS, SWEEPS, SEED)
    driver = ParallelGibbsDriver(num_workers=2)
    monkeypatch.setattr(driver, "_sample_pooled", crashing)

    with pytest.warns(RuntimeWarning, match="continuing with serial sampling"):
        survived = sample_components(SNAPSHOTS, SWEEPS, SEED, driver=driver)
    assert survived == reference  # bit-identical, not approximately equal

    assert driver.degraded
    assert not driver.active
    info = driver.info()
    assert info["degraded"] is True
    assert "worker 1 died" in info["degraded_reason"]


def test_degraded_driver_stays_serial_without_rewarning(monkeypatch):
    import warnings

    reference = sample_components(SNAPSHOTS, SWEEPS, SEED)
    driver = ParallelGibbsDriver(num_workers=2)
    monkeypatch.setattr(driver, "_sample_pooled", crashing)
    with pytest.warns(RuntimeWarning):
        sample_components(SNAPSHOTS, SWEEPS, SEED, driver=driver)

    # degraded: later batches go straight to serial — no pool attempt,
    # no second warning, same marginals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = sample_components(SNAPSHOTS, SWEEPS, SEED, driver=driver)
    assert again == reference


def test_reset_forgets_the_degrade(monkeypatch):
    driver = ParallelGibbsDriver(num_workers=2)
    monkeypatch.setattr(driver, "_sample_pooled", crashing)
    with pytest.warns(RuntimeWarning):
        sample_components(SNAPSHOTS, SWEEPS, SEED, driver=driver)
    assert driver.degraded

    driver.reset()
    assert not driver.degraded
    assert driver.active  # will try the pool again on the next batch
