"""First-class inference engines: a registry mirroring ``build_backend``.

The redesigned :class:`~repro.api.InferenceConfig` names an *engine*
instead of hard-coding ``method in ("gibbs", "bp")``.  Engines are
constructed through this registry, so adding one is::

    from repro.infer.registry import register_engine

    register_engine("my-engine", MyEngine)

and every surface — ``ProbKB.infer``, ``ExpansionSession``, the CLI's
``--engine`` flag, the serving layer — picks it up, the same way
``build_backend`` resolves backend specs.

An engine is any object with the :class:`InferenceEngine` surface:
``marginals(rows, config)`` mapping TΦ rows to ``{fact id: P(true)}``,
plus ``info()`` and ``close()``.  The built-ins:

- ``"gibbs"`` — componentwise chromatic Gibbs via the stream kernel;
  with ``num_workers >= 2`` it samples on a persistent process pool
  (:mod:`repro.infer.parallel`) with bit-identical marginals.
- ``"bp"`` — loopy belief propagation over the full graph
  (deterministic, no workers).
"""

from __future__ import annotations

import time
import warnings
from typing import (
    Any,
    Callable,
    Dict,
    Protocol,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from ..relational.types import Row
from .components import componentwise_marginals
from .factor_graph import FactorGraph

if TYPE_CHECKING:
    from ..core.config import InferenceConfig


class InferenceEngine(Protocol):
    """What the registry hands back: the engine surface ProbKB drives."""

    name: str

    def marginals(
        self, rows: Sequence[Row], config: "InferenceConfig"
    ) -> Dict[int, float]:
        """P(fact is true) keyed by fact id, over TΦ rows."""
        ...

    def info(self) -> Dict[str, Any]:
        """Introspection payload for ``GET /stats`` / ``repro infer``."""
        ...

    def close(self) -> None:
        """Release engine resources (worker pools); idempotent."""
        ...


EngineFactory = Callable[["InferenceConfig"], InferenceEngine]

_REGISTRY: Dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory) -> None:
    """Register (or replace) an engine factory under ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError(f"engine name must be a non-empty string, got {name!r}")
    _REGISTRY[name] = factory


def registered_engines() -> Tuple[str, ...]:
    """Registered engine names, sorted — for error messages and docs."""
    return tuple(sorted(_REGISTRY))


EngineSpec = Union["InferenceConfig", InferenceEngine, str]


def build_engine(spec: "InferenceConfig | str | InferenceEngine") -> InferenceEngine:
    """Resolve an engine spec to a live :class:`InferenceEngine`.

    Accepts an :class:`~repro.api.InferenceConfig`, an already-built
    engine (returned as-is), or an engine name (resolved with default
    tuning) — mirroring :func:`~repro.api.build_backend`.
    """
    from ..core.config import InferenceConfig

    if isinstance(spec, str):
        spec = InferenceConfig(engine=spec)
    if isinstance(spec, InferenceConfig):
        factory = _REGISTRY.get(spec.engine)
        if factory is None:
            raise ValueError(
                f"unknown inference engine {spec.engine!r} "
                f"(registered: {', '.join(registered_engines())})"
            )
        return factory(spec)
    if hasattr(spec, "marginals"):
        return spec
    raise TypeError(
        "expected InferenceConfig, InferenceEngine, or an engine name; "
        f"got {spec!r}"
    )


# ------------------------------------------------------------ built-ins


class GibbsEngine:
    """Componentwise chromatic Gibbs, optionally on the worker pool.

    Sampling always goes component-by-component through the stream
    kernel, so serial (``num_workers=0``) and pooled runs are
    bit-identical at a fixed seed — the determinism contract
    :mod:`repro.infer.parallel` documents.
    """

    name = "gibbs"

    def __init__(self, config: "InferenceConfig") -> None:
        from .parallel import ParallelGibbsDriver

        self.config = config
        self.driver = ParallelGibbsDriver(num_workers=config.num_workers)

    def marginals(
        self, rows: Sequence[Row], config: "InferenceConfig"
    ) -> Dict[int, float]:
        return componentwise_marginals(
            rows, config.sweeps, config.seed, driver=self.driver
        )

    def info(self) -> Dict[str, Any]:
        return {"engine": self.name, **self.driver.info()}

    def close(self) -> None:
        self.driver.close()


class BPEngine:
    """Loopy belief propagation over the full graph (no workers)."""

    name = "bp"

    def __init__(self, config: "InferenceConfig") -> None:
        self.config = config
        self._last: Dict[str, Any] = {}

    def marginals(
        self, rows: Sequence[Row], config: "InferenceConfig"
    ) -> Dict[int, float]:
        from .bp import bp_marginals

        started = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
        result = bp_marginals(FactorGraph.from_factor_rows(rows))
        self._last = {
            "iterations": result.iterations,
            "converged": result.converged,
            "wall_seconds": time.perf_counter() - started,  # lint: disable=RC003 (timing metadata, not sampling)
        }
        if not result.converged:
            warnings.warn(
                f"belief propagation did not converge in {result.iterations} "
                f"iterations (final residual {result.max_residual:.3g}); "
                "marginals are approximate",
                RuntimeWarning,
                stacklevel=2,
            )
        return result.marginals

    def info(self) -> Dict[str, Any]:
        return {"engine": self.name, "num_workers": 0, **self._last}

    def close(self) -> None:
        return None


register_engine("gibbs", GibbsEngine)
register_engine("bp", BPEngine)
