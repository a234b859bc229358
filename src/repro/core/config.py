"""Frozen configuration objects for the public entry points.

Every way of constructing the system — :class:`~repro.api.ExpansionSession`,
:class:`~repro.ProbKB`, the CLI, the serving layer — funnels through these
dataclasses, so "which backend, how many segments, how many worker
processes, which grounding strategy" is spelled the same everywhere
instead of as per-function keyword sprawl.

The objects are frozen: a config in hand can be shared, used as a dict
key, and passed to several sessions without aliasing surprises.  Use
:func:`dataclasses.replace` to derive variants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ..relational.columnar import EXECUTOR_ENGINES
from .backends import Backend, MPPBackend, SingleNodeBackend

#: Distinguishes "caller did not pass this" from any real value, so the
#: legacy-keyword shims fire only on explicit use.
_UNSET: Any = object()

#: TΠ-view policies for the MPP backend (Section 4.4): ``"matviews"``
#: maintains the four redistributed materialized views, ``"naive"``
#: reships TΠ at every join (the paper's ProbKB-pn configuration).
MPP_POLICIES = ("matviews", "naive")

BACKEND_KINDS = ("single", "mpp")


@dataclass(frozen=True)
class MPPConfig:
    """Shape of the simulated MPP cluster.

    ``num_workers=0`` (the default) runs every segment's work serially
    in the master process; ``num_workers >= 1`` spawns that many real
    worker processes, each owning ``num_segments / num_workers`` of the
    segments (see :mod:`repro.mpp.workers`).  Both modes produce
    bit-identical tables and modelled timings.
    """

    num_segments: int = 8
    num_workers: int = 0
    policy: str = "matviews"
    worker_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.num_segments < 1:
            raise ValueError(f"num_segments must be >= 1, got {self.num_segments}")
        if self.num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {self.num_workers}")
        if self.policy not in MPP_POLICIES:
            raise ValueError(
                f"unknown MPP policy {self.policy!r} (use one of {MPP_POLICIES})"
            )

    @property
    def use_matviews(self) -> bool:
        return self.policy == "matviews"


@dataclass(frozen=True)
class BackendConfig:
    """Which engine holds the tables.

    ``kind="single"`` is the PostgreSQL role, ``kind="mpp"`` the
    Greenplum role; ``mpp`` tunes the latter and is ignored by the
    former.
    """

    kind: str = "single"
    mpp: MPPConfig = field(default_factory=MPPConfig)
    name: Optional[str] = None
    #: debug gate: statically verify every distinct plan once before it
    #: executes (False still honors the PROBKB_VERIFY_PLANS env var)
    verify_plans: bool = False
    #: relational engine of the single-node backend: "columnar" or
    #: "rows" (the test reference); None defers to the PROBKB_EXECUTOR
    #: env var, then the columnar default.  MPP is always columnar.
    executor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r} (use one of {BACKEND_KINDS})"
            )
        if self.executor is not None and self.executor not in EXECUTOR_ENGINES:
            raise ValueError(
                f"unknown executor {self.executor!r} "
                f"(use one of {EXECUTOR_ENGINES})"
            )
        if self.kind == "mpp" and self.executor == "rows":
            raise ValueError(
                "executor='rows' is only available on the single-node "
                "backend (kind='single'), where the row engine is the "
                "test reference; MPP segments always run the columnar "
                "operators"
            )


#: Pre-flight static-analysis gate modes: ``"off"`` skips analysis,
#: ``"warn"`` runs it and emits an :class:`~repro.analyze.AnalysisWarning`
#: (grounding output stays bit-identical to ``"off"``), ``"strict"``
#: refuses to ground a KB program with error-severity findings.
ANALYSIS_MODES = ("off", "warn", "strict")


@dataclass(frozen=True)
class GroundingConfig:
    """How Algorithm 1 runs."""

    max_iterations: Optional[int] = None
    apply_constraints: bool = True
    semi_naive: bool = False
    analysis: str = "warn"

    def __post_init__(self) -> None:
        if self.analysis not in ANALYSIS_MODES:
            raise ValueError(
                f"unknown analysis mode {self.analysis!r} "
                f"(use one of {ANALYSIS_MODES})"
            )


@dataclass(frozen=True, init=False)
class InferenceConfig:
    """How marginal inference runs over the ground factor graph.

    ``engine`` names a factory in :mod:`repro.infer.registry` (built-ins:
    ``"gibbs"``, ``"bp"``); unknown names raise a :class:`ValueError`
    listing what is registered.  ``num_workers=0`` (the default) samples
    serially in the master process; ``num_workers >= 2`` runs the gibbs
    engine's componentwise sweep on a persistent worker pool
    (:mod:`repro.infer.parallel`) — marginals are bit-identical either
    way at a fixed seed.  ``shard_threshold`` is the component size at
    which a single component is swept by all workers together instead of
    one.

    The legacy spellings ``method=`` and ``num_sweeps=`` still work but
    emit one :class:`DeprecationWarning` each; read access through the
    ``.method`` / ``.num_sweeps`` properties stays silent.
    """

    engine: str = "gibbs"
    sweeps: int = 500
    seed: int = 0
    num_workers: int = 0
    worker_timeout: float = 60.0
    shard_threshold: int = 512

    def __init__(
        self,
        engine: str = "gibbs",
        sweeps: int = 500,
        seed: int = 0,
        num_workers: int = 0,
        worker_timeout: float = 60.0,
        shard_threshold: int = 512,
        *,
        method: Any = _UNSET,
        num_sweeps: Any = _UNSET,
    ) -> None:
        if method is not _UNSET:
            warnings.warn(
                "InferenceConfig(method=...) is deprecated; pass engine= "
                "(see repro.infer.registry)",
                DeprecationWarning,
                stacklevel=2,
            )
            engine = method
        if num_sweeps is not _UNSET:
            warnings.warn(
                "InferenceConfig(num_sweeps=...) is deprecated; pass sweeps=",
                DeprecationWarning,
                stacklevel=2,
            )
            sweeps = num_sweeps
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "sweeps", sweeps)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "num_workers", num_workers)
        object.__setattr__(self, "worker_timeout", worker_timeout)
        object.__setattr__(self, "shard_threshold", shard_threshold)
        self._validate()

    def _validate(self) -> None:
        from ..infer.registry import registered_engines

        if self.engine not in registered_engines():
            raise ValueError(
                f"unknown inference engine {self.engine!r} "
                f"(registered: {', '.join(registered_engines())})"
            )
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.num_workers < 0:
            raise ValueError(
                f"num_workers must be >= 0, got {self.num_workers}"
            )
        if self.shard_threshold < 2:
            raise ValueError(
                f"shard_threshold must be >= 2, got {self.shard_threshold}"
            )

    @property
    def method(self) -> str:
        """Deprecated spelling of :attr:`engine` (silent on read)."""
        return self.engine

    @property
    def num_sweeps(self) -> int:
        """Deprecated spelling of :attr:`sweeps` (silent on read)."""
        return self.sweeps


BackendSpec = Union[BackendConfig, Backend, str]


def build_backend(spec: BackendSpec = BackendConfig()) -> Backend:
    """Resolve a backend spec to a live :class:`Backend`.

    Accepts a :class:`BackendConfig`, an already-constructed backend
    (returned as-is), or the shorthand strings ``"single"`` / ``"mpp"``
    (resolved with default tuning).
    """
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        spec = BackendConfig(kind=spec)
    if not isinstance(spec, BackendConfig):
        raise TypeError(
            f"expected BackendConfig, Backend, or 'single'/'mpp'; got {spec!r}"
        )
    # verify_plans=False means "not forced here": pass None so the
    # PROBKB_VERIFY_PLANS env var still switches the gate on
    verify = spec.verify_plans or None
    if spec.kind == "single":
        return SingleNodeBackend(
            name=spec.name or "probkb",
            verify_plans=verify,
            executor=spec.executor,
        )
    mpp = spec.mpp
    return MPPBackend(
        nseg=mpp.num_segments,
        use_matviews=mpp.use_matviews,
        name=spec.name or "probkb-p",
        num_workers=mpp.num_workers,
        worker_timeout=mpp.worker_timeout,
        verify_plans=verify,
    )
