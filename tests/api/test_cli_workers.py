"""CLI surface of the executor config: --mpp-workers and stats."""

import pytest

from repro.cli import build_parser, _backend_config, _build_system


@pytest.fixture(scope="module")
def kb_dir(tmp_path_factory):
    from repro.cli import main

    directory = str(tmp_path_factory.mktemp("kb"))
    assert main(["generate", "--out", directory, "--people", "40", "--seed", "3"]) == 0
    return directory


@pytest.mark.parametrize("command", ["ground", "infer", "serve"])
def test_parser_accepts_mpp_workers(command):
    parser = build_parser()
    extra = ["--kb", "somewhere"] if command != "serve" else ["--kb", "somewhere"]
    args = parser.parse_args(
        [command, *extra, "--backend", "mpp", "--nseg", "4", "--mpp-workers", "3"]
    )
    assert args.mpp_workers == 3
    config = _backend_config(args)
    assert config.kind == "mpp"
    assert config.mpp.num_segments == 4
    assert config.mpp.num_workers == 3


def test_default_is_serial():
    args = build_parser().parse_args(["ground", "--kb", "somewhere"])
    assert args.mpp_workers == 0
    assert _backend_config(args).mpp.num_workers == 0


def test_build_system_uses_configs(kb_dir):
    args = build_parser().parse_args(
        ["ground", "--kb", kb_dir, "--backend", "mpp", "--nseg", "2",
         "--no-constraints", "--iterations", "2"]
    )
    system = _build_system(args)
    assert system.backend.nseg == 2
    assert system.backend_config.mpp.num_workers == 0
    assert not system.grounding_config.apply_constraints
    assert system.grounding_config.max_iterations == 2
    info = system.backend.executor_info()
    assert info == {
        "mode": "serial",
        "segments": 2,
        "workers": 0,
        "degraded": False,
        "engine": "columnar",
    }
