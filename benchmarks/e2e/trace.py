"""Spans around the calls into each layer, recorded from outside ``src/``.

Every repetition owns a :class:`Tracer`.  The workload code opens a span
around each pipeline stage it calls (load, Query 3, grounding, inference,
serving) — those stage spans are also how the untraced repetitions get
their wall-clock numbers.  A *traced* repetition additionally calls the
``instrument_*`` functions, which replace public methods on the live
objects (instance attributes, no proxy class — ``relmodel`` does
``isinstance(backend, MPPBackend)``) with wrappers that open a child span
per call and record row counts.  Spans stay in memory and are written as
JSONL when the run ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so summing self times by layer attributes every second
of a stage to exactly one layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

_clock = time.perf_counter


class Span:
    """One timed interval; also the context manager that records it."""

    __slots__ = ("tracer", "id", "parent", "name", "start", "end", "thread", "counts")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.id = next(tracer._ids)
        self.parent: Optional[int] = None
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.thread = ""
        #: counts recorded at this boundary (``rows``)
        self.counts: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        if stack:
            self.parent = stack[-1].id
        elif self.tracer._client_stack:
            # opened on a program thread (ingest worker, delta pipeline):
            # the closed-loop client is blocked waiting for it, so its
            # innermost open span is the one that caused this work
            self.parent = self.tracer._client_stack[-1].id
        stack.append(self)
        self.thread = threading.current_thread().name
        self.start = _clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = _clock()
        self.tracer._stack().pop()
        self.tracer.spans.append(self)  # list.append is atomic under the GIL


class Tracer:
    """In-memory span recorder for one repetition (``run`` is its id)."""

    def __init__(self, run: int = 0) -> None:
        self.run = run
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: the span stack of the thread that made the tracer (the client)
        self._client_stack = self._stack()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> Span:
        return Span(self, name)

    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        rows: Optional[Callable[[Any], int]] = None,
        after: Optional[Callable[[], None]] = None,
    ) -> None:
        """Replace ``obj.method`` (on the instance) with a span-recording
        wrapper.  ``rows`` extracts a row count from the return value;
        ``after`` runs inside the span once the call returned."""
        inner = getattr(obj, method)

        @functools.wraps(inner)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with Span(self, name) as span:
                result = inner(*args, **kwargs)
                if rows is not None:
                    span.counts["rows"] = rows(result)
                if after is not None:
                    after()
                return result

        setattr(obj, method, traced)

    # -- reading the trace ---------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def rows(self, name: str) -> int:
        return sum(
            span.counts.get("rows", 0) for span in self.spans if span.name == name
        )

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the interval its children cover."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                start = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.id] = span.duration - covered
        return result

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed by layer (the part of a span name before the
        first dot)."""
        own = self.self_times()
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name.split(".", 1)[0]] += own[span.id]
        return dict(totals)

    def records(self) -> Iterable[Dict[str, Any]]:
        own = self.self_times()
        epoch = min((span.start for span in self.spans), default=0.0)
        for span in sorted(self.spans, key=lambda s: s.start):
            record: Dict[str, Any] = {
                "run": self.run,
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "start": span.start - epoch,
                "end": span.end - epoch,
                "self": own[span.id],
                "thread": span.thread,
            }
            record.update(span.counts)
            yield record


def write_jsonl(tracers: Iterable[Tracer], path: str) -> int:
    """Write every span of ``tracers`` to ``path``; returns spans written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for record in tracer.records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                written += 1
    return written


# -- instrumentation of the program's public methods ------------------------------


def _plan_counters(tracer: Tracer, database: Any) -> Callable[[], None]:
    """After an MPP statement: walk the physical plan it recorded and
    count motions, the rows they moved, and joins fed by no motion."""

    def count() -> None:
        root = database.last_plan
        if root is None:
            return
        counters = tracer.counters
        pending = [root]
        while pending:
            node = pending.pop()
            pending.extend(node.children)
            if node.kind.endswith("Motion"):
                counters["mpp.motions"] += 1
                counters["mpp.motion_rows"] += node.rows
            elif node.kind in ("Hash Join", "Hash Anti Join"):
                counters["mpp.joins"] += 1
                if not any(c.kind.endswith("Motion") for c in node.children):
                    counters["mpp.collocated_joins"] += 1

    return count


def instrument_backend(tracer: Tracer, backend: Any) -> None:
    """Statement-level spans on a ``Backend``; named after the engine
    that executes them (``relational`` single-node, ``mpp`` cluster)."""
    layer = "mpp" if backend.is_mpp else "relational"
    after = _plan_counters(tracer, backend.db) if backend.is_mpp else None
    tracer.wrap(backend, "insert_from", f"{layer}.insert_from", rows=int, after=after)
    tracer.wrap(
        backend,
        "insert_from_with_ids",
        f"{layer}.insert_from",
        rows=lambda result: result[0],
        after=after,
    )
    tracer.wrap(backend, "delete_in", f"{layer}.delete_in", rows=int, after=after)
    tracer.wrap(
        backend,
        "query",
        f"{layer}.query",
        rows=lambda result: len(result.rows),
        after=after,
    )
    tracer.wrap(backend, "bulkload", f"{layer}.bulkload", rows=int)
    tracer.wrap(backend, "insert_rows", f"{layer}.bulkload", rows=int)
    if backend.is_mpp:
        tracer.wrap(backend, "after_facts_changed", "mpp.matview_refresh")


def instrument_probkb(tracer: Tracer, probkb: Any) -> None:
    """Spans on the grounding pipeline of one ``ProbKB``.  Its backend
    is instrumented separately, before the load that constructs it."""
    grounder = probkb.grounder
    tracer.wrap(
        grounder,
        "ground_atoms_iteration",
        "core.query1_iter",
        rows=lambda stats: stats.derived_rows,
    )
    tracer.wrap(grounder, "apply_constraints", "core.query3", rows=int)
    tracer.wrap(
        grounder, "ground_factors", "core.query2", rows=lambda result: result[0]
    )
    tracer.wrap(probkb.rkb, "stage_candidates", "core.stage", rows=int)
    tracer.wrap(probkb.rkb, "merge_staged", "core.merge", rows=int)
    tracer.wrap(probkb, "factor_rows", "infer.factor_rows", rows=len)
    tracer.wrap(probkb, "query_facts", "core.query_facts", rows=len)


def instrument_service(tracer: Tracer, service: Any) -> None:
    """Spans on a ``KBService`` and the delta expander behind it."""
    tracer.wrap(service, "query", "serve.query")
    tracer.wrap(service, "ingest", "serve.ingest")
    tracer.wrap(service, "flush", "serve.flush")
    if service.delta is not None:
        tracer.wrap(service.delta, "prime", "delta.prime")
        tracer.wrap(service.delta, "ground", "delta.ground")
        tracer.wrap(service.delta, "infer", "delta.infer")
        tracer.wrap(service.delta, "commit", "delta.commit")
