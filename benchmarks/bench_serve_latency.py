"""Serving-layer query latency: cold cache vs warm cache.

The paper's responsivity argument (Section 2.2) is that materializing
inferred results makes query-time access cheap; the serving layer adds
an LRU result cache on top.  This benchmark quantifies both hops on the
bench-scale ReVerb-Sherlock KB: per-query p50/p99 with every query a
cache miss (cold) vs repeat traffic (warm), plus the hit rate achieved.
"""

import time

from repro import InferenceConfig, ProbKB
from repro.bench import format_table, scaled, write_result
from repro.serve import KBService, LatencyRing, ServiceConfig


def percentiles(samples):
    ring = LatencyRing(capacity=max(1, len(samples)))
    for sample in samples:
        ring.observe(sample)
    return ring.percentile(50), ring.percentile(99)


def query_patterns(kb, limit):
    """Distinct single-column patterns drawn from the KB's own facts."""
    patterns, seen = [], set()
    for fact in kb.facts:
        for pattern in (
            {"relation": fact.relation},
            {"subject": fact.subject},
            {"relation": fact.relation, "subject": fact.subject},
        ):
            key = tuple(sorted(pattern.items()))
            if key not in seen:
                seen.add(key)
                patterns.append(pattern)
        if len(patterns) >= limit:
            return patterns[:limit]
    return patterns


def timed_queries(service, patterns, rounds=1):
    samples = []
    for _ in range(rounds):
        for pattern in patterns:
            started = time.perf_counter()
            service.query(**pattern)
            samples.append(time.perf_counter() - started)
    return samples


def test_bench_serve_latency(benchmark, reverb_kb):
    system = ProbKB(reverb_kb.kb, backend="single")
    system.ground(max_iterations=3)
    system.materialize_marginals(config=InferenceConfig(sweeps=60, seed=0))
    patterns = query_patterns(reverb_kb.kb, scaled(150))

    def workload():
        service = KBService(system, ServiceConfig(cache_size=4 * len(patterns)))
        cold = timed_queries(service, patterns)  # every pattern a miss
        warm = timed_queries(service, patterns, rounds=3)  # repeat traffic
        return cold, warm, service.stats()

    cold, warm, stats = benchmark.pedantic(workload, rounds=1, iterations=1)

    cold_p50, cold_p99 = percentiles(cold)
    warm_p50, warm_p99 = percentiles(warm)
    rows = [
        ("cold cache", len(cold), cold_p50 * 1e6, cold_p99 * 1e6, 0.0),
        (
            "warm cache",
            len(warm),
            warm_p50 * 1e6,
            warm_p99 * 1e6,
            stats["cache"]["hit_rate"],
        ),
    ]
    report = format_table(
        ["phase", "queries", "p50 (us)", "p99 (us)", "hit rate"],
        rows,
        title=(
            f"Serving latency over {system.fact_count()} facts "
            f"(speedup p50: {cold_p50 / max(warm_p50, 1e-9):.1f}x)"
        ),
    )
    write_result("serve_latency", report)

    assert stats["cache"]["hit_rate"] > 0.5  # repeat traffic mostly hits
    assert warm_p50 <= cold_p50  # cached reads are no slower
