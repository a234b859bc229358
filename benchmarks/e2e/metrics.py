"""The benchmark's metric names, units and directions — one table that
the runner prints from, ``--compare`` judges with, and the harness test
holds ``BENCHMARK.json`` to.

End-to-end metrics are what a user of the system sees; every workload
emits every one of them (the driver's contract), which is why the
stage-specific walls of the issue (inference, pooled MPP phase, ingest
visibility) live in the per-layer table: they do not exist on every
workload.  So do the latency percentiles, which did not repeat within a
bound on this host (README, "What the issue listed").  Per-layer metrics come from the traced repetition and read 0
on a workload whose path skips the layer.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # end-to-end only: tolerated worsening, share of median


LOWER, HIGHER = "lower", "higher"

END_TO_END: List[Metric] = [
    # generate KB, S2 / hold-out split, query-pattern pool: everything
    # before the system is touched (median of five set-ups per run, after one warm-up)
    Metric("setup_s", "s", LOWER, 0.25),
    # KB in -> last pipeline stage of the workload done
    Metric("expand_wall_s", "s", LOWER, 0.25),
    # session construction (load) through Query 2: the Table 3 row total
    Metric("ground_wall_s", "s", LOWER, 0.25),
    # operations of the serving phase per second of it: uncached queries
    # on the batch workloads, (queries + flushes) / wall on serve_mixed
    Metric("serve_ops_per_s", "1/s", HIGHER, 0.25),
    # ru_maxrss of the workload process (plus the largest pool worker on mpp_s2)
    Metric("peak_rss_mb", "MB", LOWER, 0.10),
]


def _m(name: str, unit: str, better: str = LOWER) -> Metric:
    return Metric(name, unit, better)


PER_LAYER: List[Metric] = [
    # datasets
    _m("datasets.generate_s", "s"),
    _m("datasets.facts", "count"),
    _m("datasets.rules", "count"),
    # analyze
    _m("analyze.preflight_s", "s"),
    # core (grounding pipeline)
    _m("core.load_s", "s"),
    _m("core.query3_s", "s"),
    _m("core.query3_removed_facts", "count"),
    _m("core.query1_s", "s"),
    _m("core.query1_iter_p50_s", "s"),
    _m("core.query1_iterations", "count"),
    _m("core.query1_derived_rows", "count"),
    _m("core.query1_new_facts", "count"),
    _m("core.query1_useful_ratio", "ratio", HIGHER),
    _m("core.stage_s", "s"),
    _m("core.merge_s", "s"),
    _m("core.query2_s", "s"),
    _m("core.query2_factors", "count"),
    _m("core.query_facts_s", "s"),
    _m("core.self_s", "s"),
    # relational (single-node statements; CostClock counts on any backend)
    _m("relational.insert_from_s", "s"),
    _m("relational.insert_from_rows", "count"),
    _m("relational.delete_in_s", "s"),
    _m("relational.query_s", "s"),
    _m("relational.bulkload_s", "s"),
    _m("relational.statements", "count"),
    _m("relational.rows_scanned", "count"),
    _m("relational.rows_built", "count"),
    _m("relational.rows_probed", "count"),
    _m("relational.rows_output", "count"),
    _m("relational.rows_inserted", "count"),
    _m("relational.rows_examined_per_output", "ratio"),
    _m("relational.modelled_s", "s"),
    _m("relational.self_s", "s"),
    # mpp (serial executor; "pooled"/"pool"/cpu: the worker-pool phase)
    _m("mpp.pooled_expand_wall_s", "s"),
    _m("mpp.pooled_speedup", "ratio", HIGHER),
    _m("mpp.pooled_query_p50_us", "us"),
    _m("mpp.pool_spawn_s", "s"),
    _m("mpp.cpu_s", "s"),
    _m("mpp.load_s", "s"),
    _m("mpp.statements", "count"),
    _m("mpp.statements_s", "s"),
    _m("mpp.motions", "count"),
    _m("mpp.motion_rows", "count"),
    _m("mpp.rows_shipped", "count"),
    _m("mpp.rows_broadcast", "count"),
    _m("mpp.collocated_join_ratio", "ratio", HIGHER),
    _m("mpp.matview_refresh_s", "s"),
    _m("mpp.segment_skew", "ratio"),
    _m("mpp.modelled_s", "s"),
    _m("mpp.self_s", "s"),
    # infer
    _m("infer.wall_s", "s"),
    _m("infer.factor_rows_s", "s"),
    _m("infer.graph_build_s", "s"),
    _m("infer.engine_s", "s"),
    _m("infer.sweeps_per_s", "1/s", HIGHER),
    _m("infer.variables", "count"),
    _m("infer.factors", "count"),
    _m("infer.colors", "count"),
    _m("infer.materialize_s", "s"),
    _m("infer.self_s", "s"),
    # delta (from KBService.stats()["delta"])
    _m("delta.prime_s", "s"),
    _m("delta.ground_p50_ms", "ms"),
    _m("delta.infer_p50_ms", "ms"),
    _m("delta.commit_p50_ms", "ms"),
    _m("delta.new_facts", "count"),
    _m("delta.new_factors", "count"),
    _m("delta.touched_components", "count"),
    _m("delta.resampled_variables", "count"),
    _m("delta.full_rebuild_ratio", "ratio"),
    _m("delta.errors", "count"),
    _m("delta.self_s", "s"),
    # serve
    _m("serve.ingest_visible_p50_ms", "ms"),
    _m("serve.ingest_visible_p90_ms", "ms"),
    _m("serve.queries", "count", HIGHER),
    _m("serve.flushes", "count", HIGHER),
    _m("serve.cache_hit_ratio", "ratio", HIGHER),
    _m("serve.cache_hit_p50_us", "us"),
    _m("serve.cache_invalidations", "count"),
    _m("serve.query_uncached_p50_us", "us"),
    _m("serve.query_p95_us", "us"),
    _m("serve.query_p99_us", "us"),
    _m("serve.dead_letter_facts", "count"),
    _m("serve.self_s", "s"),
    # trace
    _m("trace.overhead_ratio", "ratio"),
    _m("trace.attributed_ratio", "ratio", HIGHER),
    _m("trace.spans", "count"),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
