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

from dataclasses import dataclass, field
from typing import Optional, Union

from .backends import Backend, MPPBackend, SingleNodeBackend
from .grounding import check_iteration_cap

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

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r} (use one of {BACKEND_KINDS})"
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
        check_iteration_cap(self.max_iterations)
        if self.analysis not in ANALYSIS_MODES:
            raise ValueError(
                f"unknown analysis mode {self.analysis!r} "
                f"(use one of {ANALYSIS_MODES})"
            )


#: Marginal-inference engines: ``"gibbs"`` samples componentwise
#: (:mod:`repro.infer.components`), ``"bp"`` runs loopy belief
#: propagation over the whole graph (:mod:`repro.infer.bp`).
INFERENCE_ENGINES = ("bp", "gibbs")


@dataclass(frozen=True)
class InferenceConfig:
    """How marginal inference runs over the ground factor graph.

    ``engine`` is one of :data:`INFERENCE_ENGINES`.  The gibbs engine
    samples every component in one in-process pass, so there are no
    workers to size; ``sweeps`` and ``seed`` are its tuning.
    """

    engine: str = "gibbs"
    sweeps: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.engine not in INFERENCE_ENGINES:
            raise ValueError(
                f"unknown inference engine {self.engine!r} "
                f"(use one of {INFERENCE_ENGINES})"
            )
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")


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
    if spec.kind == "single":
        return SingleNodeBackend(name=spec.name or "probkb")
    mpp = spec.mpp
    return MPPBackend(
        nseg=mpp.num_segments,
        use_matviews=mpp.use_matviews,
        name=spec.name or "probkb-p",
        num_workers=mpp.num_workers,
    )
