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

- ``"gibbs"`` — componentwise chromatic Gibbs: every component in one
  pass of the numpy block kernel, or one scalar chain per component
  with numpy off, with ``==`` marginals either way.
- ``"bp"`` — loopy belief propagation over the full graph
  (deterministic).
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

from ..relational.columnar import get_numpy
from ..relational.types import Row
from .components import ComponentSnapshot, all_snapshots, sample_components
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
        """Release engine resources; idempotent."""
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
    """Componentwise chromatic Gibbs (:mod:`repro.infer.components`).

    ``info()`` reports the kernel, components, colours and wall clock of
    the last call, whether it came from :meth:`marginals` or from a delta
    flush through :meth:`sample`.
    """

    name = "gibbs"

    def __init__(self, config: "InferenceConfig") -> None:
        self.config = config
        self._last: Dict[str, Any] = {}

    def marginals(
        self, rows: Sequence[Row], config: "InferenceConfig"
    ) -> Dict[int, float]:
        return self.sample(all_snapshots(rows), config)

    def sample(
        self, snapshots: Sequence[ComponentSnapshot], config: "InferenceConfig"
    ) -> Dict[int, float]:
        """Marginals of a batch of component snapshots."""
        started = time.perf_counter()  # lint: disable=RC003 (timing metadata, not sampling)
        sample = sample_components(snapshots, config.sweeps, config.seed)
        self._last = {
            "kernel": sample.kernel,
            "components": sample.components,
            "colors": sample.colors,
            "wall_seconds": time.perf_counter() - started,  # lint: disable=RC003 (timing metadata, not sampling)
        }
        return sample.marginals

    def info(self) -> Dict[str, Any]:
        kernel = "numpy" if get_numpy() is not None else "python"
        return {"engine": self.name, "kernel": kernel, **self._last}

    def close(self) -> None:
        return None


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
        return {"engine": self.name, **self._last}

    def close(self) -> None:
        return None


register_engine("gibbs", GibbsEngine)
register_engine("bp", BPEngine)
