"""ServeConfig resolution, the JSON logger, and the token-bucket limiter."""

import io
import json

import pytest

from repro.cli import build_parser, build_serve_service, main
from repro.datasets import paper_kb, save_kb
from repro.serve import JsonLogger, RateLimiter, ServeConfig
from repro.serve.ingest import IngestConfig


class TestServeConfig:
    def test_defaults_are_open_except_body_cap(self):
        config = ServeConfig()
        assert not config.auth_enabled
        assert not config.rate_limit_enabled
        assert config.request_timeout == 30.0
        assert config.max_body_bytes == 1 << 20

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(rate_limit=-1)
        with pytest.raises(ValueError):
            ServeConfig(rate_burst=0)
        with pytest.raises(ValueError):
            ServeConfig(request_timeout=-0.1)
        with pytest.raises(ValueError):
            ServeConfig(max_body_bytes=-1)
        with pytest.raises(ValueError):
            ServeConfig(auth_tokens=("ok", ""))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["rate_limit", "request_timeout"])
    def test_non_finite_values_are_rejected(self, field, value):
        """A NaN or infinite budget used to be accepted and then made
        every request's ``Thread.join`` raise."""
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            ServeConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("field", ["flush_interval", "put_timeout"])
    def test_ingest_timing_must_be_finite(self, field, value):
        """``flush_interval=nan`` used to make the flusher's wait return
        at once, forever; ``inf`` made it raise ``OverflowError``."""
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            IngestConfig(**{field: value})

    def test_cli_rejects_non_finite_timing_at_startup(self, monkeypatch, capsys):
        """Both fail before any KB is loaded, with the field named."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--kb", "no-such-kb", "--flush-interval", "nan"])
        assert exit_info.value.code == 2
        assert "flush_interval must be a finite number" in capsys.readouterr().err
        monkeypatch.setenv("PROBKB_SERVE_TIMEOUT", "inf")
        assert main(["serve", "--kb", "no-such-kb"]) == 2
        assert "request_timeout must be a finite number" in capsys.readouterr().err

    def test_expansion_default_is_full(self, tmp_path):
        """``expansion`` is an engine setting, not a front-end one: its
        one spelling is ``ServiceConfig.expansion``, which ``repro serve
        --expansion`` feeds directly."""
        assert not hasattr(ServeConfig(), "expansion")
        kb_dir = str(tmp_path / "kb")
        save_kb(paper_kb(), kb_dir)
        for flags, expansion in (([], "full"), (["--expansion", "delta"], "delta")):
            args = build_parser().parse_args(["serve", "--kb", kb_dir, *flags])
            service = build_serve_service(args)
            assert service.config.expansion == expansion
            assert (service.delta is not None) == (expansion == "delta")

    def test_from_env_reads_every_knob(self):
        env = {
            "PROBKB_SERVE_AUTH_TOKEN": "alpha, beta",
            "PROBKB_SERVE_RATE_LIMIT": "2.5",
            "PROBKB_SERVE_RATE_BURST": "7",
            "PROBKB_SERVE_TIMEOUT": "1.5",
            "PROBKB_SERVE_MAX_BODY": "2048",
            "PROBKB_SERVE_LOG_JSON": "true",
        }
        config = ServeConfig.from_env(env)
        assert config.auth_tokens == ("alpha", "beta")
        assert config.rate_limit == 2.5
        assert config.rate_burst == 7
        assert config.request_timeout == 1.5
        assert config.max_body_bytes == 2048
        assert config.log_json is True

    def test_from_env_ignores_unset_variables(self):
        assert ServeConfig.from_env({}) == ServeConfig()

    def test_from_env_rejects_garbage(self):
        with pytest.raises(ValueError, match="PROBKB_SERVE_RATE_LIMIT"):
            ServeConfig.from_env({"PROBKB_SERVE_RATE_LIMIT": "fast"})
        with pytest.raises(ValueError, match="PROBKB_SERVE_LOG_JSON"):
            ServeConfig.from_env({"PROBKB_SERVE_LOG_JSON": "maybe"})

    def test_resolve_cli_overrides_env(self):
        env = {"PROBKB_SERVE_RATE_LIMIT": "2.0", "PROBKB_SERVE_RATE_BURST": "5"}
        config = ServeConfig.resolve(env, rate_limit=9.0, rate_burst=None)
        assert config.rate_limit == 9.0  # explicit flag wins
        assert config.rate_burst == 5  # None means "not given": env shows through

    def test_resolve_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            ServeConfig.resolve({}, no_such_knob=1)


class TestJsonLogger:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonLogger(stream=stream, clock=lambda: 12.0)
        logger.log("request", method="GET", path="/facts", status=200)
        logger.log("flush", facts=3)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "ts": 12.0,
            "event": "request",
            "method": "GET",
            "path": "/facts",
            "status": 200,
        }
        assert json.loads(lines[1])["event"] == "flush"

    def test_disabled_logger_writes_nothing(self):
        stream = io.StringIO()
        logger = JsonLogger(stream=stream, enabled=False)
        logger.log("request", status=200)
        assert stream.getvalue() == ""

    def test_unserializable_fields_fall_back_to_repr(self):
        stream = io.StringIO()
        logger = JsonLogger(stream=stream)
        logger.log("error", error=ValueError("boom"))
        payload = json.loads(stream.getvalue())
        assert "boom" in payload["error"]


class TestRateLimiter:
    def test_burst_then_reject_with_retry_after(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=3, clock=lambda: clock[0])
        assert [limiter.check("c")[0] for _ in range(3)] == [True] * 3
        allowed, retry_after = limiter.check("c")
        assert not allowed
        assert retry_after == pytest.approx(1.0)

    def test_tokens_refill_over_time(self):
        clock = [0.0]
        limiter = RateLimiter(rate=2.0, burst=2, clock=lambda: clock[0])
        assert limiter.check("c")[0] and limiter.check("c")[0]
        assert not limiter.check("c")[0]
        clock[0] += 0.5  # one token refills at 2/s
        assert limiter.check("c")[0]
        assert not limiter.check("c")[0]

    def test_clients_do_not_share_buckets(self):
        limiter = RateLimiter(rate=1.0, burst=1)
        assert limiter.check("a")[0]
        assert not limiter.check("a")[0]
        assert limiter.check("b")[0]  # fresh bucket for a new client

    def test_client_table_is_bounded(self):
        limiter = RateLimiter(rate=1.0, burst=1, max_clients=3)
        for i in range(10):
            limiter.check(f"client-{i}")
        assert len(limiter) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0, burst=1)
        with pytest.raises(ValueError):
            RateLimiter(rate=1, burst=0)
