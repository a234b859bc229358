"""Real wall-clock of the inference engines behind the registry API.

The paper delegates marginal inference to GraphLab's parallel chromatic
Gibbs sampler; our registry provides ``gibbs`` (serial or color-parallel
on the worker pool) and ``bp``.  This benchmark grounds the
running-example-scale KB through one :class:`ExpansionSession` and then

- times the ``gibbs`` engine serially and with a 2-worker pool on the
  *same* config otherwise, and **gates on bit-identical marginals** —
  the parallel driver's determinism contract, asserted on every host;
- runs the ``bp`` engine for the accuracy cross-check the old version
  of this benchmark reported (mean |gibbs - bp| gap);
- reports the chromatic structure (colors vs variables) that bounds the
  per-sweep parallelism.

Like ``bench_mpp_wallclock``, the measured-speedup assertion presumes
real cores; on a single-core host the pool is pure overhead, so it is
conditioned on ``os.cpu_count()``.  Excluded from tier-1 by the ``mpp``
marker; run with ``make bench-infer``.
"""

import os
import time

import pytest

from repro.api import ExpansionSession, GroundingConfig, InferenceConfig, registered_engines
from repro.bench import format_table, scaled, write_result
from repro.datasets import ReVerbSherlockConfig, generate
from repro.datasets.world import WorldConfig

pytestmark = pytest.mark.mpp

SWEEPS = 200
SEED = 0
WORKERS = 2
SPEEDUP_TARGET = 1.2


def timed_infer(session, config):
    started = time.perf_counter()
    result = session.infer(config)
    wall = time.perf_counter() - started
    info = session.inference_info(config)
    return result, wall, info


def test_inference_engines(benchmark):
    generated = generate(
        ReVerbSherlockConfig(world=WorldConfig(n_people=scaled(150)), seed=5)
    )
    cores = os.cpu_count() or 1
    serial_config = InferenceConfig(engine="gibbs", sweeps=SWEEPS, seed=SEED)
    pooled_config = InferenceConfig(
        engine="gibbs", sweeps=SWEEPS, seed=SEED, num_workers=WORKERS
    )
    bp_config = InferenceConfig(engine="bp")

    with ExpansionSession(
        generated.kb, grounding=GroundingConfig(apply_constraints=True)
    ) as session:
        session.ground(max_iterations=6)

        def workload():
            serial = timed_infer(session, serial_config)
            pooled = timed_infer(session, pooled_config)
            bp = timed_infer(session, bp_config)
            return serial, pooled, bp

        (
            (serial, serial_wall, serial_info),
            (pooled, pooled_wall, pooled_info),
            (bp, bp_wall, bp_info),
        ) = benchmark.pedantic(workload, rounds=1, iterations=1)

    identical = dict(serial) == dict(pooled)
    speedup = serial_wall / pooled_wall
    agreement = _mean_abs_difference(serial, bp)
    colors = serial_info["colors"]
    rows = [
        ("gibbs (serial)", f"{serial_wall:.2f}", "1", "yes"),
        (f"gibbs ({WORKERS} workers)", f"{pooled_wall:.2f}", str(WORKERS),
         "yes" if identical else "NO"),
        ("bp", f"{bp_wall:.2f}", "1", "n/a"),
    ]
    table = format_table(
        ["engine", "wall-clock (s)", "workers", "bit-identical"],
        rows,
        title=(
            f"Inference engines over the grounded factor graph "
            f"({serial.num_variables} variables, {serial.num_factors} factors, "
            f"{SWEEPS} sweeps, {cores} core(s) available)"
        ),
    )
    lines = [
        table,
        "",
        f"registered engines: {', '.join(registered_engines())}",
        f"chromatic colors: {colors} "
        f"(ideal per-sweep parallelism {serial.num_variables / max(1, colors):.1f}x)",
        f"measured pooled speedup: {speedup:.2f}x "
        f"(target >={SPEEDUP_TARGET}x, needs >=2 cores)",
        f"serial == pooled marginals (bit-identical): {identical}",
        f"BP iterations (converged): {bp_info['iterations']} ({bp_info['converged']})",
        f"mean |gibbs - bp| marginal gap: {agreement:.3f}",
    ]
    write_result("inference_engines", "\n".join(lines))

    # correctness holds regardless of the host: the parallel driver's
    # contract is bit-identical marginals at a fixed seed, any pool size
    assert identical, "pooled gibbs diverged from serial at the same seed"
    assert pooled_info["pooled"] is True and pooled_info["degraded"] is False
    assert serial.num_variables > 100
    # chromatic scheduling exposes massive per-sweep parallelism
    assert colors < serial.num_variables / 4
    # the two approximate engines roughly agree
    assert agreement < 0.15

    # the speedup claim is a statement about parallel hardware
    if cores >= 2:
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >={SPEEDUP_TARGET}x with {WORKERS} workers on "
            f"{cores} cores, measured {speedup:.2f}x"
        )


def _mean_abs_difference(first, second):
    keys = set(first) & set(second)
    return sum(abs(first[k] - second[k]) for k in keys) / max(1, len(keys))
