"""repro.serve — the concurrent KB serving layer.

Wraps a :class:`~repro.ProbKB` in a long-lived, concurrency-safe
service: readers-writer locking for pattern queries vs evidence ingest,
micro-batched ingest with backpressure and a dead-letter list, an LRU
query cache invalidated by KB generation, warm-restart
snapshots, optional O(delta) flush expansion (``expansion="delta"``,
see :mod:`repro.delta` and ``docs/incremental.md``), and a stdlib JSON
HTTP API hardened with bearer-token auth,
per-client rate limiting, request bounds, structured JSON logs, and
graceful drain (see ``docs/serve.md``).

Typical embedding::

    from repro.serve import KBService, ServiceConfig

    service = KBService(probkb).start()
    result = service.query(relation="born_in")
    service.ingest([fact], flush=True)
    service.stop()

``python -m repro.cli serve --kb <dir>`` runs the HTTP front end.
"""

from .cache import QueryCache
from .config import ServeConfig
from .engine import EXPANSION_MODES, KBService, QueryResult, RWLock, ServiceConfig
from .http import KBServer, make_server
from .ingest import EvidenceQueue, IngestConfig, IngestOverflow, IngestWorker, coalesce
from .limiter import RateLimiter
from .logging import JsonLogger
from .metrics import LatencyRing, ServiceMetrics
from .snapshot import export_sqlite, load_snapshot, save_snapshot, snapshot_dict

__all__ = [
    "EXPANSION_MODES",
    "EvidenceQueue",
    "IngestConfig",
    "IngestOverflow",
    "IngestWorker",
    "JsonLogger",
    "KBServer",
    "KBService",
    "LatencyRing",
    "QueryCache",
    "QueryResult",
    "RWLock",
    "RateLimiter",
    "ServeConfig",
    "ServiceConfig",
    "ServiceMetrics",
    "coalesce",
    "export_sqlite",
    "load_snapshot",
    "make_server",
    "save_snapshot",
    "snapshot_dict",
]
