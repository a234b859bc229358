"""Command-line interface for ProbKB.

Subcommands::

    python -m repro.cli generate --out kb/ --people 300 --seed 7
    python -m repro.cli stats    --kb kb/
    python -m repro.cli analyze  --kb kb/ --json --fail-on warn
    python -m repro.cli explain  --kb kb/ --backend mpp --nseg 8
    python -m repro.cli sql      --kb kb/
    python -m repro.cli ground   --kb kb/ --backend mpp --nseg 8 --out expanded/
    python -m repro.cli infer    --kb kb/ --engine gibbs --top 20
    python -m repro.cli evaluate --seed 7 --theta 0.5 --constraints
    python -m repro.cli serve    --kb kb/ --port 8080 --snapshot kb.snapshot.json

``generate`` writes the synthetic ReVerb-Sherlock KB as TSV files;
``ground``/``infer`` run the expansion pipeline on any TSV KB;
``evaluate`` reruns the Section 6.2 precision protocol (it regenerates
from the seed because the oracle judge needs the ground-truth world).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analyze import AnalysisError
from .core import (
    BackendConfig,
    GroundingConfig,
    InferenceConfig,
    MPPConfig,
    ProbKB,
    build_backend,
)
from .core.config import INFERENCE_ENGINES
from .datasets import (
    ReVerbSherlockConfig,
    WorldConfig,
    generate as generate_kb,
    load_kb,
    save_kb,
)
from .quality import QualityConfig, run_quality_experiment


def _iteration_cap(raw: str) -> int:
    """``--iterations``: an int >= 1, else a usage error."""
    from .core.grounding import check_iteration_cap

    try:
        value = int(raw)
        check_iteration_cap(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _seconds(raw: str) -> float:
    """``--flush-interval``: a finite number >= 0, else a usage error."""
    from .serve.config import require_finite

    try:
        value = float(raw)
        require_finite("flush_interval", value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probkb",
        description="ProbKB: knowledge expansion over probabilistic knowledge bases",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate_cmd = commands.add_parser(
        "generate", help="generate a synthetic ReVerb-Sherlock KB as TSV"
    )
    generate_cmd.add_argument("--out", required=True, help="output directory")
    generate_cmd.add_argument("--people", type=int, default=300)
    generate_cmd.add_argument("--countries", type=int, default=8)
    generate_cmd.add_argument("--seed", type=int, default=0)

    stats_cmd = commands.add_parser("stats", help="print KB statistics (Table 2)")
    stats_cmd.add_argument("--kb", required=True, help="KB directory (TSV)")

    analyze_cmd = commands.add_parser(
        "analyze",
        help="static analysis of a KB program (pre-flight quality control)",
    )
    analyze_cmd.add_argument("--kb", required=True, help="KB directory (TSV)")
    analyze_cmd.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    analyze_cmd.add_argument(
        "--no-infos",
        action="store_true",
        help="suppress informational findings (bounds, cycles)",
    )
    analyze_cmd.add_argument(
        "--fail-on",
        choices=("error", "warn"),
        default="error",
        help="exit nonzero on error findings (default) or on warnings too",
    )
    _add_environment_arguments(analyze_cmd)

    explain_cmd = commands.add_parser(
        "explain",
        help="static EXPLAIN of the grounding queries (estimates only, "
        "nothing executes)",
    )
    explain_cmd.add_argument("--kb", required=True, help="KB directory (TSV)")
    explain_cmd.add_argument(
        "--json", action="store_true", help="emit the full plan report as JSON"
    )
    explain_cmd.add_argument(
        "--verify",
        action="store_true",
        help="also run the plan verifier (PKB201-212) over every plan; "
        "exit nonzero on error findings",
    )
    _add_environment_arguments(explain_cmd)

    sql_cmd = commands.add_parser(
        "sql", help="print the grounding SQL generated for a KB"
    )
    sql_cmd.add_argument("--kb", required=True)

    ground_cmd = commands.add_parser("ground", help="run batch grounding")
    _add_pipeline_arguments(ground_cmd)
    ground_cmd.add_argument("--out", help="write the expanded KB here (TSV)")

    infer_cmd = commands.add_parser(
        "infer", help="ground + marginal inference; print the top new facts"
    )
    _add_pipeline_arguments(infer_cmd)
    infer_cmd.add_argument(
        "--engine",
        choices=INFERENCE_ENGINES,
        default="gibbs",
        help="marginal-inference engine (default: gibbs)",
    )
    infer_cmd.add_argument("--sweeps", type=int, default=500)
    infer_cmd.add_argument("--top", type=int, default=20)

    evaluate_cmd = commands.add_parser(
        "evaluate", help="Section 6.2 precision protocol on a generated KB"
    )
    evaluate_cmd.add_argument("--seed", type=int, default=0)
    evaluate_cmd.add_argument("--people", type=int, default=300)
    evaluate_cmd.add_argument("--theta", type=float, default=1.0)
    evaluate_cmd.add_argument(
        "--constraints", action="store_true", help="apply semantic constraints"
    )
    evaluate_cmd.add_argument("--iterations", type=_iteration_cap, default=10)

    serve_cmd = commands.add_parser(
        "serve", help="ground a KB and serve it over HTTP (repro.serve)"
    )
    serve_cmd.add_argument("--kb", help="KB directory (TSV) to load and ground")
    serve_cmd.add_argument(
        "--snapshot",
        help="snapshot path: warm-start from it when present, write it "
        "after grounding and on shutdown (POST /snapshot refreshes it)",
    )
    serve_cmd.add_argument("--backend", choices=("single", "mpp"), default="single")
    serve_cmd.add_argument("--nseg", type=int, default=8)
    serve_cmd.add_argument(
        "--mpp-workers",
        type=int,
        default=0,
        help="worker processes for the MPP backend (0 = serial execution)",
    )
    serve_cmd.add_argument("--iterations", type=_iteration_cap, default=None)
    serve_cmd.add_argument(
        "--no-constraints", action="store_true", help="skip quality control"
    )
    serve_cmd.add_argument(
        "--analysis",
        choices=("off", "warn", "strict"),
        default="warn",
        help="static-analysis gate for loading and for ingested rules",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
    serve_cmd.add_argument(
        "--materialize",
        action="store_true",
        help="run marginal inference and store TProb before serving",
    )
    serve_cmd.add_argument("--sweeps", type=int, default=200)
    serve_cmd.add_argument("--cache-size", type=int, default=256)
    serve_cmd.add_argument("--flush-size", type=int, default=64)
    serve_cmd.add_argument("--flush-interval", type=_seconds, default=0.2)
    serve_cmd.add_argument("--max-queue", type=int, default=4096)
    serve_cmd.add_argument(
        "--expansion",
        choices=("full", "delta"),
        default="full",
        help="how flushes refresh the KB: 'full' re-expansion or the "
        "incremental 'delta' path",
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    # hardening flags; each defaults to None so the PROBKB_SERVE_* env
    # vars show through unless the flag is given explicitly
    serve_cmd.add_argument(
        "--auth-token",
        action="append",
        default=None,
        metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' (repeatable; "
        "env PROBKB_SERVE_AUTH_TOKEN, comma-separated)",
    )
    serve_cmd.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="sustained requests/second allowed per client, 0 disables "
        "(env PROBKB_SERVE_RATE_LIMIT)",
    )
    serve_cmd.add_argument(
        "--rate-burst",
        type=int,
        default=None,
        help="token-bucket burst size (env PROBKB_SERVE_RATE_BURST)",
    )
    serve_cmd.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request handler budget in seconds, 0 disables "
        "(env PROBKB_SERVE_TIMEOUT)",
    )
    serve_cmd.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        help="largest accepted request body, 0 = unlimited "
        "(env PROBKB_SERVE_MAX_BODY)",
    )
    serve_cmd.add_argument(
        "--log-json",
        action="store_true",
        default=None,
        help="one JSON log line per request/flush/error on stderr "
        "(env PROBKB_SERVE_LOG_JSON)",
    )

    devtools_cmd = commands.add_parser(
        "devtools", help="developer tooling aimed at repro's own source"
    )
    devtools_sub = devtools_cmd.add_subparsers(dest="devtools_command", required=True)
    lint_cmd = devtools_sub.add_parser(
        "lint",
        help="concurrency & determinism lint (RC001-RC009); "
        "exit 0 clean, 1 findings, 2 usage error",
    )
    lint_cmd.add_argument(
        "paths", nargs="+", help="files or directories to lint (.py)"
    )
    lint_cmd.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    return parser


def _add_pipeline_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--kb", required=True, help="KB directory (TSV)")
    cmd.add_argument("--backend", choices=("single", "mpp"), default="single")
    cmd.add_argument("--nseg", type=int, default=8)
    cmd.add_argument(
        "--mpp-workers",
        type=int,
        default=0,
        help="worker processes for the MPP backend (0 = serial execution)",
    )
    cmd.add_argument("--iterations", type=_iteration_cap, default=None)
    cmd.add_argument(
        "--no-constraints", action="store_true", help="skip quality control"
    )
    cmd.add_argument(
        "--semi-naive", action="store_true", help="delta (semi-naive) grounding"
    )
    cmd.add_argument(
        "--analysis",
        choices=("off", "warn", "strict"),
        default="warn",
        help="pre-flight static-analysis gate (strict refuses to ground "
        "a KB with error findings)",
    )


def _add_environment_arguments(cmd: argparse.ArgumentParser) -> None:
    """The deployment the static plans are computed *for*."""
    cmd.add_argument(
        "--backend",
        choices=("single", "mpp"),
        default="mpp",
        help="environment to plan for (default: the paper's MPP cluster)",
    )
    cmd.add_argument("--nseg", type=int, default=8)
    cmd.add_argument(
        "--policy",
        choices=("matviews", "naive"),
        default="matviews",
        help="TΠ-view policy of the planned-for MPP backend",
    )


def _backend_config(args) -> BackendConfig:
    return BackendConfig(
        kind=args.backend,
        mpp=MPPConfig(
            num_segments=args.nseg,
            num_workers=getattr(args, "mpp_workers", 0),
            policy=getattr(args, "policy", "matviews"),
        ),
    )


def _build_system(args) -> ProbKB:
    # the gate in ProbKB handles analysis; skip the loader's own pass so
    # warnings are not reported twice
    kb = load_kb(args.kb, analysis="off")
    return ProbKB(
        kb,
        backend=_backend_config(args),
        grounding=GroundingConfig(
            max_iterations=args.iterations,
            apply_constraints=not args.no_constraints,
            semi_naive=getattr(args, "semi_naive", False),
            analysis=getattr(args, "analysis", "warn"),
        ),
    )


def cmd_generate(args) -> int:
    generated = generate_kb(
        ReVerbSherlockConfig(
            world=WorldConfig(
                n_people=args.people, n_countries=args.countries, seed=args.seed
            ),
            seed=args.seed,
        )
    )
    save_kb(generated.kb, args.out)
    print(f"wrote {generated.kb} to {args.out}")
    return 0


def cmd_stats(args) -> int:
    kb = load_kb(args.kb)
    for key, value in kb.stats().items():
        print(f"# {key:12s} {value:>10,}")
    return 0


def _load_for_analysis(kb_dir: str):
    """Load a KB for analyze/explain; None (exit code 2) when unreadable."""
    from .core.model import KnowledgeBaseError

    try:
        return load_kb(kb_dir, analysis="off")
    except (OSError, KnowledgeBaseError, ValueError) as error:
        print(f"error: cannot load KB from {kb_dir!r}: {error}", file=sys.stderr)
        return None


def cmd_analyze(args) -> int:
    """Run the static analyzer.

    Exit codes: 0 = clean at the chosen gate, 1 = findings at/above the
    ``--fail-on`` severity, 2 = the KB could not be loaded/analyzed
    (see ``docs/analyze.md``).
    """
    from .analyze import analyze

    kb = _load_for_analysis(args.kb)
    if kb is None:
        return 2
    with build_backend(_backend_config(args)) as backend:
        report = analyze(kb, include_infos=not args.no_infos, backend=backend)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.render(include_infos=not args.no_infos))
    failed = report.has_errors or (
        args.fail_on == "warn" and bool(report.warnings)
    )
    return 1 if failed else 0


def cmd_explain(args) -> int:
    """Static EXPLAIN: estimated plan trees for every grounding query."""
    import json

    from .analyze import estimate_plans, verify_report

    kb = _load_for_analysis(args.kb)
    if kb is None:
        return 2
    with build_backend(_backend_config(args)) as backend:
        report = estimate_plans(kb, backend)
    reports = verify_report(report) if args.verify else []
    if args.json:
        payload = report.to_dict()
        if args.verify:
            payload["verified"] = [r.to_dict() for r in reports]
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        for verification in reports:
            print(verification.render())
    return 1 if any(not r.ok for r in reports) else 0


def cmd_sql(args) -> int:
    system = ProbKB(load_kb(args.kb), backend="single")
    for name, sql in system.generated_sql().items():
        print(f"-- {name}")
        print(sql + ";")
        print()
    return 0


def cmd_ground(args) -> int:
    system = _build_system(args)
    executor = system.backend.executor_info()
    if executor["workers"]:
        print(
            f"executor: {executor['mode']} "
            f"({executor['workers']} workers, {executor['segments']} segments)"
        )
    result = system.ground(args.iterations)
    for stats in result.iterations:
        print(
            f"iteration {stats.iteration}: +{stats.new_facts} facts "
            f"(-{stats.removed_facts} removed), |TP|={stats.fact_count}, "
            f"{stats.seconds:.2f}s"
        )
    print(
        f"grounding {'converged' if result.converged else 'stopped'}: "
        f"{result.total_new_facts} new facts, {result.factors} factors, "
        f"{result.total_seconds:.2f}s modelled"
    )
    if args.out:
        from .core import KnowledgeBase

        expanded = KnowledgeBase(
            classes=system.kb.classes,
            relations=system.kb.relations.values(),
            facts=system.all_facts(),
            rules=system.kb.rules,
            constraints=system.kb.constraints,
            validate=False,
        )
        save_kb(expanded, args.out)
        print(f"expanded KB written to {args.out}")
    system.close()
    return 0


def cmd_infer(args) -> int:
    config = InferenceConfig(engine=args.engine, sweeps=args.sweeps)
    system = _build_system(args)
    system.ground(args.iterations)
    marginals = system.infer(config)
    info = system.inference_info(config)
    print(
        f"engine={info.get('engine')} "
        f"components={info.get('components', '-')} "
        f"colors={info.get('colors', '-')} "
        f"wall={info.get('wall_seconds', 0.0):.3f}s"
    )
    new = system.new_facts(marginals)
    new.sort(key=lambda item: -(item[1] or 0.0))
    print(f"{len(new)} inferred facts; top {min(args.top, len(new))}:")
    for fact, probability in new[: args.top]:
        print(f"  P={probability:.2f}  {fact.relation}({fact.subject}, {fact.object})")
    system.close()
    return 0


def cmd_evaluate(args) -> int:
    generated = generate_kb(
        ReVerbSherlockConfig(
            world=WorldConfig(n_people=args.people, seed=args.seed), seed=args.seed
        )
    )
    config = QualityConfig(use_constraints=args.constraints, theta=args.theta)
    outcome = run_quality_experiment(
        generated, config, max_iterations=args.iterations
    )
    print(f"config: {config.describe()}")
    for point in outcome.points:
        print(
            f"  iteration {point.iteration}: {point.new_facts:6d} new, "
            f"precision {point.precision:.2f}"
        )
    print(
        f"total: {outcome.total_new_facts} inferred, "
        f"~{outcome.estimated_correct:.0f} correct, "
        f"precision {outcome.overall_precision:.2f}"
    )
    return 0


def build_serve_service(args, logger=None):
    """Build the KBService for ``serve`` (separate for testability)."""
    import os

    from .serve import IngestConfig, KBService, ServiceConfig, load_snapshot

    if args.snapshot and os.path.exists(args.snapshot):
        system = load_snapshot(args.snapshot, backend=_backend_config(args))
        print(f"warm start: {system.fact_count()} facts from {args.snapshot}")
    elif args.kb:
        kb = load_kb(args.kb, analysis="off")
        system = ProbKB(
            kb,
            backend=_backend_config(args),
            grounding=GroundingConfig(
                max_iterations=args.iterations,
                apply_constraints=not args.no_constraints,
                analysis=getattr(args, "analysis", "warn"),
            ),
        )
        result = system.ground(args.iterations)
        print(
            f"grounded {args.kb}: {system.fact_count()} facts "
            f"({result.total_new_facts} inferred)"
        )
        if args.materialize:
            stored = system.materialize_marginals(
                config=InferenceConfig(sweeps=args.sweeps)
            )
            print(f"materialized {stored} marginals ({args.sweeps} sweeps)")
        if args.snapshot:
            from .serve import save_snapshot

            save_snapshot(system, args.snapshot)
            print(f"snapshot written to {args.snapshot}")
    else:
        raise SystemExit("serve: need --kb, or --snapshot pointing at a file")

    config = ServiceConfig(
        cache_size=args.cache_size,
        ingest=IngestConfig(
            max_queue=args.max_queue,
            flush_size=args.flush_size,
            flush_interval=args.flush_interval,
        ),
        inference=InferenceConfig(sweeps=args.sweeps),
        expansion=args.expansion,
    )
    return KBService(system, config, logger=logger)


def cmd_serve(args) -> int:
    import signal
    import threading

    from .serve import JsonLogger, ServeConfig, make_server, save_snapshot

    try:
        serve_config = ServeConfig.resolve(
            auth_tokens=tuple(args.auth_token) if args.auth_token else None,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            request_timeout=args.request_timeout,
            max_body_bytes=args.max_body_bytes,
            log_json=args.log_json,
        )
    except ValueError as error:  # a flag or a PROBKB_SERVE_* value
        print(f"error: {error}", file=sys.stderr)
        return 2
    logger = JsonLogger(enabled=serve_config.log_json)
    service = build_serve_service(args, logger=logger)
    server = make_server(
        service,
        host=args.host,
        port=args.port,
        snapshot_path=args.snapshot,
        quiet=not args.verbose,
        config=serve_config,
        logger=logger,
    )
    host, port = server.server_address[:2]
    service.start()

    # Graceful drain: on SIGTERM/SIGINT stop admitting evidence (healthz
    # flips to "draining"), flush everything already accepted into the
    # KB, write the final snapshot, then stop the listener and exit 0.
    drain_lock = threading.Lock()
    drained = threading.Event()

    def _drain() -> None:
        with drain_lock:
            if drained.is_set():
                return
            server.draining = True
            logger.log("drain_begin", queue_depth=service.queue.depth)
            try:
                service.stop()  # stops the worker, then drains the queue
                if args.snapshot:
                    save_snapshot(service.probkb, args.snapshot)
                    logger.log("snapshot", path=args.snapshot)
            except Exception as error:  # pragma: no cover - defensive
                # _drain runs on the signal thread: an uncaught error
                # here would vanish and leave the server half-stopped
                logger.log("drain_error", error=repr(error))
            finally:
                drained.set()
                server.shutdown()

    def _on_signal(signum, frame) -> None:
        # serve_forever blocks the main thread; shutdown() must come
        # from another thread or it deadlocks waiting on its own loop
        threading.Thread(target=_drain, name="probkb-drain", daemon=True).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _on_signal)
        except ValueError:  # not the main thread (embedded use)
            break

    print(f"serving on http://{host}:{port} (Ctrl-C to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if not drained.is_set():
            _drain()
        server.server_close()
        if args.snapshot:
            print(f"snapshot written to {args.snapshot}")
        service.probkb.close()
    return 0


def cmd_devtools(args) -> int:
    # imported lazily: the lint framework is developer tooling and
    # should cost nothing on the serving/inference paths
    from .devtools import LintUsageError, lint_paths

    try:
        report = lint_paths(args.paths)
    except LintUsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.render())
    return 1 if report.findings else 0


_HANDLERS = {
    "generate": cmd_generate,
    "stats": cmd_stats,
    "analyze": cmd_analyze,
    "explain": cmd_explain,
    "sql": cmd_sql,
    "ground": cmd_ground,
    "infer": cmd_infer,
    "evaluate": cmd_evaluate,
    "serve": cmd_serve,
    "devtools": cmd_devtools,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except AnalysisError as error:
        print(f"error: {error}", file=sys.stderr)
        kb_dir = getattr(args, "kb", None)
        if kb_dir:
            print(
                f"(run `probkb analyze --kb {kb_dir}` for the full report, "
                f"or pass --analysis warn to proceed anyway)",
                file=sys.stderr,
            )
        return 2


if __name__ == "__main__":
    sys.exit(main())
