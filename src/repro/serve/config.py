"""Serving-layer hardening knobs: one dataclass, env vars, CLI flags.

:class:`ServeConfig` collects everything the HTTP front end needs to
behave like a production data service — authentication, admission
control, resource caps, and structured logging — separate from
:class:`~repro.serve.engine.ServiceConfig`, which tunes the KB engine
behind it.  Resolution order (lowest to highest precedence)::

    dataclass defaults  <  PROBKB_SERVE_* env vars  <  CLI flags

Environment variables (all optional)::

    PROBKB_SERVE_AUTH_TOKEN    comma-separated accepted bearer tokens
    PROBKB_SERVE_RATE_LIMIT    sustained requests/second per client
    PROBKB_SERVE_RATE_BURST    token-bucket burst size
    PROBKB_SERVE_TIMEOUT       per-request handler budget, seconds
    PROBKB_SERVE_MAX_BODY      request-body cap, bytes
    PROBKB_SERVE_LOG_JSON      1/true/yes/on enables JSON request logs
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

_ENV_PREFIX = "PROBKB_SERVE_"

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off", ""})


def _parse_bool(name: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ValueError(f"{name} must be a boolean (1/0, true/false), got {raw!r}")


def _parse_float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def _parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def require_finite(name: str, value: float) -> None:
    """Reject a NaN, an infinity or a negative value for field ``name``
    (a time or a rate): a wait on one spins, raises or never ends."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")


def _parse_tokens(raw: str) -> Tuple[str, ...]:
    return tuple(token.strip() for token in raw.split(",") if token.strip())


@dataclass(frozen=True)
class ServeConfig:
    """How the HTTP front end admits, bounds, and logs requests.

    Every limit has an "off" value (empty/zero) so the default config
    behaves exactly like the pre-hardening server except for the body
    cap, which always applies — an unbounded read is never correct.
    """

    #: accepted ``Authorization: Bearer`` tokens; empty tuple = no auth
    auth_tokens: Tuple[str, ...] = ()
    #: sustained requests/second allowed per client; 0 = no rate limit
    rate_limit: float = 0.0
    #: token-bucket capacity (how big a burst one client may fire)
    rate_burst: int = 20
    #: wall-clock budget for one handler, seconds; 0 = no timeout
    request_timeout: float = 30.0
    #: largest accepted request body, bytes; 0 = unlimited (discouraged)
    max_body_bytes: int = 1 << 20
    #: emit one structured JSON log line per request/flush/error
    log_json: bool = False

    def __post_init__(self) -> None:
        require_finite("rate_limit", self.rate_limit)
        if self.rate_burst < 1:
            raise ValueError(f"rate_burst must be >= 1, got {self.rate_burst}")
        require_finite("request_timeout", self.request_timeout)
        if self.max_body_bytes < 0:
            raise ValueError(
                f"max_body_bytes must be >= 0, got {self.max_body_bytes}"
            )
        if any(not token for token in self.auth_tokens):
            raise ValueError("auth tokens must be non-empty strings")

    @property
    def auth_enabled(self) -> bool:
        return bool(self.auth_tokens)

    @property
    def rate_limit_enabled(self) -> bool:
        return self.rate_limit > 0

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "ServeConfig":
        """Build a config from ``PROBKB_SERVE_*`` variables (defaults elsewhere)."""
        if env is None:
            env = os.environ
        parsers: Dict[str, Callable[[str, str], object]] = {
            "AUTH_TOKEN": lambda _name, raw: _parse_tokens(raw),
            "RATE_LIMIT": _parse_float,
            "RATE_BURST": _parse_int,
            "TIMEOUT": _parse_float,
            "MAX_BODY": _parse_int,
            "LOG_JSON": _parse_bool,
        }
        field_for = {
            "AUTH_TOKEN": "auth_tokens",
            "RATE_LIMIT": "rate_limit",
            "RATE_BURST": "rate_burst",
            "TIMEOUT": "request_timeout",
            "MAX_BODY": "max_body_bytes",
            "LOG_JSON": "log_json",
        }
        overrides: Dict[str, object] = {}
        for suffix, parse in parsers.items():
            name = _ENV_PREFIX + suffix
            raw = env.get(name)
            if raw is not None:
                overrides[field_for[suffix]] = parse(name, raw)
        return replace(cls(), **overrides)  # type: ignore[arg-type]

    @classmethod
    def resolve(
        cls, env: Optional[Mapping[str, str]] = None, **overrides: object
    ) -> "ServeConfig":
        """Env-derived config with non-``None`` keyword overrides on top.

        This is what the ``repro serve`` CLI calls: argparse hands every
        hardening flag in with ``None`` meaning "not given on the
        command line", so only explicit flags shadow the environment.
        """
        known = {field.name for field in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(f"unknown ServeConfig fields: {', '.join(sorted(unknown))}")
        provided = {
            name: value for name, value in overrides.items() if value is not None
        }
        return replace(cls.from_env(env), **provided)  # type: ignore[arg-type]
