"""A stdlib JSON HTTP API over :class:`~repro.serve.engine.KBService`.

Endpoints::

    GET  /healthz              liveness + current generation ("draining"
                               once shutdown has begun; never gated)
    GET  /stats                service metrics (counters, cache, latency)
    GET  /explain              static plan report for the current KB
    GET  /facts?relation=&subject=&object=&min_probability=
    POST /evidence             {"facts": [...], "flush": false}
    POST /rules                {"rules": [...]} — gated by static analysis
    POST /snapshot             write the configured snapshot file
    POST /dead-letter/retry    requeue dead-lettered evidence batches

``ThreadingHTTPServer`` gives one thread per request, which is exactly
the concurrency shape KBService is built for: many readers on the read
lock, ingest serialized through the micro-batch queue.

Admission control (see :class:`~repro.serve.config.ServeConfig`): when
auth tokens are configured every endpoint except ``/healthz`` requires
``Authorization: Bearer <token>`` (else 401); when a rate limit is
configured each client — keyed by its bearer token, falling back to the
remote address — draws from a token bucket (else 429 + ``Retry-After``).
Request bodies are capped (413 past the limit), and handler work runs
under a wall-clock budget (504 past it).
"""

from __future__ import annotations

import hmac
import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..analyze import AnalysisError
from ..core.clauses import Atom, ClauseError, HornClause
from ..core.model import Fact, KnowledgeBaseError, finite_weight
from .config import ServeConfig
from .engine import KBService
from .ingest import IngestOverflow
from .limiter import RateLimiter
from .logging import NULL_LOGGER, JsonLogger
from .snapshot import save_snapshot

FACT_FIELDS = ("relation", "subject", "subject_class", "object", "object_class")

#: endpoints that stay reachable without auth and outside rate limits —
#: load balancers and process supervisors must always see liveness
OPEN_PATHS = frozenset({"/healthz"})

#: what one route handler returns: (HTTP status, JSON payload)
Response = Tuple[int, dict]


class BadRequest(ValueError):
    """Client error carrying the HTTP status (and headers) to answer with."""

    def __init__(
        self,
        message: str,
        status: int = 400,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers: Dict[str, str] = headers or {}


def fact_to_dict(fact: Fact, probability: Optional[float]) -> dict:
    return {
        "relation": fact.relation,
        "subject": fact.subject,
        "subject_class": fact.subject_class,
        "object": fact.object,
        "object_class": fact.object_class,
        "weight": fact.weight,
        "probability": probability,
    }


def fact_from_dict(payload: dict) -> Fact:
    if not isinstance(payload, dict):
        raise BadRequest(f"each fact must be an object, got {type(payload).__name__}")
    missing = [name for name in FACT_FIELDS if name not in payload]
    if missing:
        raise BadRequest(f"fact missing fields: {', '.join(missing)}")
    empty = [name for name in FACT_FIELDS if str(payload[name]).strip() == ""]
    if empty:
        raise BadRequest(f"fact fields must be non-empty: {', '.join(empty)}")
    weight = payload.get("weight")
    if weight is not None:
        try:
            weight = finite_weight(weight)
        except ValueError as error:
            raise BadRequest(str(error)) from None
    return Fact(
        relation=str(payload["relation"]),
        subject=str(payload["subject"]),
        subject_class=str(payload["subject_class"]),
        object=str(payload["object"]),
        object_class=str(payload["object_class"]),
        weight=weight,
    )


def _atom_from_dict(payload: object, role: str) -> Atom:
    if not isinstance(payload, dict):
        raise BadRequest(f"{role} must be an object, got {type(payload).__name__}")
    relation = payload.get("relation")
    args = payload.get("args")
    if not relation or not isinstance(relation, str):
        raise BadRequest(f"{role} needs a non-empty 'relation' string")
    if not isinstance(args, list) or len(args) != 2:
        raise BadRequest(f"{role} needs 'args': a list of exactly 2 variables")
    return Atom(relation, (str(args[0]), str(args[1])))


def rule_from_dict(payload: dict) -> HornClause:
    """Parse ``{"weight", "head", "body", "classes"[, "score"]}``."""
    if not isinstance(payload, dict):
        raise BadRequest(f"each rule must be an object, got {type(payload).__name__}")
    if "weight" not in payload:
        raise BadRequest("rule missing 'weight'")
    try:
        weight = finite_weight(payload["weight"], "rule weight")
    except ValueError as error:
        raise BadRequest(str(error)) from None
    head = _atom_from_dict(payload.get("head"), "rule head")
    raw_body = payload.get("body")
    if not isinstance(raw_body, list) or not raw_body:
        raise BadRequest("rule 'body' must be a non-empty list of atoms")
    body = [
        _atom_from_dict(item, f"body atom {index}")
        for index, item in enumerate(raw_body)
    ]
    classes = payload.get("classes")
    if not isinstance(classes, dict):
        raise BadRequest("rule 'classes' must map each variable to a class")
    try:
        score = float(payload.get("score", 1.0))
    except (TypeError, ValueError):
        raise BadRequest(
            f"rule score must be a number, got {payload['score']!r}"
        ) from None
    return HornClause.make(
        head,
        body,
        weight,
        {str(var): str(cls) for var, cls in classes.items()},
        score=score,
    )


class KBServer(ThreadingHTTPServer):
    """The HTTP front end; owns nothing but references to the service."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: KBService,
        snapshot_path: Optional[str] = None,
        quiet: bool = True,
        config: Optional[ServeConfig] = None,
        logger: Optional[JsonLogger] = None,
    ) -> None:
        super().__init__(address, KBRequestHandler)
        self.service = service
        self.snapshot_path = snapshot_path
        self.quiet = quiet
        self.config = config or ServeConfig()
        self.logger = logger if logger is not None else NULL_LOGGER
        #: flipped by the graceful-shutdown path: /healthz reports it and
        #: POST /evidence refuses new work while the queue drains
        self.draining = False
        self.limiter: Optional[RateLimiter] = (
            RateLimiter(self.config.rate_limit, self.config.rate_burst)
            if self.config.rate_limit_enabled
            else None
        )


class KBRequestHandler(BaseHTTPRequestHandler):
    server: KBServer

    # -- plumbing ------------------------------------------------------------

    def _respond(
        self, status: int, payload: dict, headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        """Read and parse the request body, enforcing the byte cap.

        Malformed or negative ``Content-Length`` is the client's error
        (400), never a stack trace; a length past ``max_body_bytes``
        answers 413 before a single body byte is read, so one oversized
        POST cannot balloon the server's memory.
        """
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except (TypeError, ValueError):
            raise BadRequest(
                f"malformed Content-Length: {raw_length!r}"
            ) from None
        if length < 0:
            raise BadRequest(f"malformed Content-Length: {raw_length!r}")
        cap = self.server.config.max_body_bytes
        if cap and length > cap:
            self.server.service.metrics.record_oversize()
            raise BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{cap}-byte limit",
                status=413,
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except socket.timeout:
            raise BadRequest("timed out reading request body", status=408) from None
        if not raw:
            raise BadRequest("empty request body")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise BadRequest(f"invalid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    # -- admission control ---------------------------------------------------

    def _bearer_token(self) -> Optional[str]:
        header = self.headers.get("Authorization", "")
        if header.startswith("Bearer "):
            token = header[len("Bearer "):].strip()
            return token or None
        return None

    def _check_auth(self, path: str) -> None:
        tokens = self.server.config.auth_tokens
        if not tokens or path in OPEN_PATHS:
            return
        presented = self._bearer_token()
        if presented is not None:
            expected = presented.encode("utf-8", "surrogateescape")
            for token in tokens:
                if hmac.compare_digest(expected, token.encode("utf-8")):
                    return
        self.server.service.metrics.record_auth_failure()
        raise BadRequest(
            "missing or invalid bearer token",
            status=401,
            headers={"WWW-Authenticate": 'Bearer realm="probkb"'},
        )

    def _check_rate_limit(self, path: str) -> None:
        limiter = self.server.limiter
        if limiter is None or path in OPEN_PATHS:
            return
        # authenticated clients are limited per credential; anonymous
        # ones per remote address
        key = self._bearer_token() or self.client_address[0]
        allowed, retry_after = limiter.check(key)
        if allowed:
            return
        self.server.service.metrics.record_rate_limited()
        whole_seconds = max(1, math.ceil(retry_after))
        raise BadRequest(
            f"rate limit exceeded; retry in {retry_after:.2f}s",
            status=429,
            headers={"Retry-After": str(whole_seconds)},
        )

    def _call_with_timeout(self, handler: Callable[[], Response]) -> Response:
        """Run one route handler under the configured wall-clock budget.

        The handler runs in a helper thread so the request thread can
        give up on it; a timed-out handler keeps running detached (its
        writes are still correctly serialized by the service locks) but
        the client gets a prompt 504 instead of a hung socket.
        """
        budget = self.server.config.request_timeout
        if budget <= 0:
            return handler()
        outcome: Dict[str, object] = {}

        def run() -> None:
            try:
                outcome["result"] = handler()
            except BaseException as error:  # re-raised in the request thread
                outcome["error"] = error

        thread = threading.Thread(target=run, name="probkb-handler", daemon=True)
        thread.start()
        thread.join(budget)
        if thread.is_alive():
            self.server.service.metrics.record_timeout()
            raise BadRequest(
                f"request exceeded the {budget:.1f}s handler budget", status=504
            )
        error = outcome.get("error")
        if isinstance(error, BaseException):
            raise error
        result = outcome["result"]
        assert isinstance(result, tuple)
        return result

    # -- dispatch ------------------------------------------------------------

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def _handle(self, method: str) -> None:
        started = time.perf_counter()
        url = urlparse(self.path)
        server = self.server
        status, payload = 500, {"error": "internal error"}
        headers: Dict[str, str] = {}
        try:
            self._check_auth(url.path)
            self._check_rate_limit(url.path)
            handler = self._route(method, url.path, url.query)
            status, payload = self._call_with_timeout(handler)
        except BadRequest as error:
            status, payload, headers = error.status, {"error": str(error)}, error.headers
        except Exception as error:  # answer JSON, never a hung socket
            status, payload = 500, {"error": f"internal error: {error!r}"}
            server.logger.log(
                "error", method=method, path=url.path, error=repr(error)
            )
        try:
            self._respond(status, payload, headers)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to answer
        server.logger.log(
            "request",
            method=method,
            path=url.path,
            status=status,
            latency_ms=round((time.perf_counter() - started) * 1000, 3),
            client=self.client_address[0],
            generation=server.service.probkb.generation,
            queue_depth=server.service.queue.depth,
        )

    def _route(
        self, method: str, path: str, query: str
    ) -> Callable[[], Response]:
        """Resolve one request to a zero-argument handler closure.

        Request *reading* (body, params) happens here, in the request
        thread; the returned closure does only service work, which is
        what the handler budget meters.
        """
        service = self.server.service
        if method == "GET":
            params = parse_qs(query)
            if path == "/healthz":
                return self._get_healthz
            if path == "/stats":
                return lambda: (200, service.stats())
            if path == "/explain":
                return lambda: (200, service.explain())
            if path == "/facts":
                return lambda: self._get_facts(params)
        else:
            if path == "/evidence":
                evidence = self._read_json()
                return lambda: self._post_evidence(evidence)
            if path == "/rules":
                rules = self._read_json()
                return lambda: self._post_rules(rules)
            if path == "/snapshot":
                return self._post_snapshot
            if path == "/dead-letter/retry":
                return self._post_dead_letter_retry
        raise BadRequest(f"unknown path {path!r}", status=404)

    # -- routes --------------------------------------------------------------

    def _get_healthz(self) -> Response:
        server = self.server
        return 200, {
            "status": "draining" if server.draining else "ok",
            "generation": server.service.generation,
            "queue_depth": server.service.queue.depth,
        }

    def _get_facts(self, params: Dict[str, List[str]]) -> Response:
        def single(name: str) -> Optional[str]:
            values = params.get(name)
            if not values:
                return None
            if len(values) > 1:
                raise BadRequest(f"parameter {name!r} given more than once")
            return values[0]

        min_probability = 0.0
        raw = single("min_probability")
        if raw is not None:
            try:
                min_probability = float(raw)
            except ValueError:
                min_probability = math.nan
            if math.isnan(min_probability):
                raise BadRequest(f"min_probability must be a number, got {raw!r}")
        unknown = set(params) - {
            "relation", "subject", "object", "min_probability"
        }
        if unknown:
            raise BadRequest(f"unknown parameters: {', '.join(sorted(unknown))}")
        result = self.server.service.query(
            relation=single("relation"),
            subject=single("subject"),
            object=single("object"),
            min_probability=min_probability,
        )
        return 200, {
            "generation": result.generation,
            "cache_hit": result.cache_hit,
            "count": len(result.facts),
            "facts": [
                fact_to_dict(fact, probability)
                for fact, probability in result.facts
            ],
        }

    def _post_evidence(self, payload: dict) -> Response:
        if self.server.draining:
            raise BadRequest("service is draining; not accepting evidence",
                             status=503)
        raw_facts = payload.get("facts")
        if not isinstance(raw_facts, list) or not raw_facts:
            raise BadRequest("'facts' must be a non-empty list")
        facts = [fact_from_dict(item) for item in raw_facts]
        flush = bool(payload.get("flush", False))
        service = self.server.service
        try:
            depth = service.ingest(facts, flush=flush)
        except IngestOverflow as error:
            raise BadRequest(str(error), status=503) from None
        return 202, {
            "accepted": len(facts),
            "queue_depth": depth,
            "flushed": flush,
            "generation": service.generation,
        }

    def _post_rules(self, payload: dict) -> Response:
        """Ingest deductive rules, gated by the KB's static analysis.

        Responds 422 (with the findings) when the analysis gate rejects
        the batch, 400 for rules the relational model cannot represent.
        """
        raw_rules = payload.get("rules")
        if not isinstance(raw_rules, list) or not raw_rules:
            raise BadRequest("'rules' must be a non-empty list")
        rules = [rule_from_dict(item) for item in raw_rules]
        service = self.server.service
        try:
            new_facts = service.add_rules(rules)
        except AnalysisError as error:
            return 422, {
                "error": str(error),
                "findings": [f.to_dict() for f in error.report.errors],
            }
        except (ClauseError, KnowledgeBaseError) as error:
            raise BadRequest(str(error)) from None
        return 200, {
            "added": len(rules),
            "new_facts": new_facts,
            "generation": service.generation,
        }

    def _post_dead_letter_retry(self) -> Response:
        """Operator re-ingest: drain the dead-letter list back through
        the evidence queue.  Failed batches get the normal retry +
        dead-letter treatment again; 503 (queue full) loses nothing —
        the facts stay dead-lettered for a later attempt."""
        if self.server.draining:
            raise BadRequest(
                "service is draining; not accepting evidence", status=503
            )
        service = self.server.service
        try:
            requeued, depth = service.retry_dead_letter()
        except IngestOverflow as error:
            raise BadRequest(str(error), status=503) from None
        return 200, {
            "requeued": requeued,
            "queue_depth": depth,
            "dead_letter": service.worker.dead_letter_stats(),
            "generation": service.generation,
        }

    def _post_snapshot(self) -> Response:
        server = self.server
        if server.snapshot_path is None:
            raise BadRequest("no snapshot path configured", status=409)
        server.service.flush()
        with server.service.lock.read_locked():
            path = save_snapshot(server.service.probkb, server.snapshot_path)
        server.service.metrics.record_snapshot()
        return 200, {"path": path}


def make_server(
    service: KBService,
    host: str = "127.0.0.1",
    port: int = 8080,
    snapshot_path: Optional[str] = None,
    quiet: bool = True,
    config: Optional[ServeConfig] = None,
    logger: Optional[JsonLogger] = None,
) -> KBServer:
    """Bind (but do not start) the HTTP server; port 0 picks a free port."""
    return KBServer(
        (host, port),
        service,
        snapshot_path=snapshot_path,
        quiet=quiet,
        config=config,
        logger=logger,
    )
