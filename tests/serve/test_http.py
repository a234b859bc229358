"""The HTTP JSON API, in-process and through the `repro serve` CLI."""

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro import InferenceConfig, ProbKB
from repro.datasets import paper_kb, save_kb
from repro.serve import IngestConfig, KBService, ServiceConfig, make_server

EVIDENCE = {
    "facts": [
        {
            "relation": "born_in",
            "subject": "Saul Bellow",
            "subject_class": "Writer",
            "object": "Brooklyn",
            "object_class": "Place",
            "weight": 0.88,
        }
    ],
    "flush": True,
}


def get_json(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def post_json(url, payload, timeout=30):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


@pytest.fixture
def base_url(tmp_path):
    kb = paper_kb()
    kb.classes["Writer"].add("Saul Bellow")
    system = ProbKB(kb, backend="single")
    system.ground()
    system.materialize_marginals(config=InferenceConfig(sweeps=150, seed=1))
    service = KBService(
        system,
        ServiceConfig(ingest=IngestConfig(flush_size=4, flush_interval=0.05)),
    ).start()
    server = make_server(
        service, port=0, snapshot_path=str(tmp_path / "snap.json")
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.stop()


def test_healthz(base_url):
    status, payload = get_json(base_url + "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert isinstance(payload["generation"], int)


def test_facts_filtered_query(base_url):
    status, payload = get_json(base_url + "/facts?relation=born_in")
    assert status == 200
    assert payload["count"] == 2
    for fact in payload["facts"]:
        assert fact["relation"] == "born_in"
        assert fact["probability"] is not None


def test_facts_min_probability(base_url):
    _, everything = get_json(base_url + "/facts")
    _, confident = get_json(base_url + "/facts?min_probability=0.55")
    assert confident["count"] < everything["count"]


def test_facts_repeat_is_cache_hit(base_url):
    _, first = get_json(base_url + "/facts?relation=live_in")
    _, second = get_json(base_url + "/facts?relation=live_in")
    assert not first["cache_hit"]
    assert second["cache_hit"]
    assert second["facts"] == first["facts"]


def test_evidence_then_facts_reflects_inference(base_url):
    status, accepted = post_json(base_url + "/evidence", EVIDENCE)
    assert status == 202
    assert accepted["accepted"] == 1 and accepted["flushed"]
    _, payload = get_json(base_url + "/facts?subject=Saul+Bellow")
    relations = {fact["relation"] for fact in payload["facts"]}
    # the evidence fact plus its rule-derived consequences
    assert "born_in" in relations
    assert {"live_in", "grow_up_in"} <= relations


def test_stats_endpoint(base_url):
    get_json(base_url + "/facts?relation=born_in")
    get_json(base_url + "/facts?relation=born_in")
    status, stats = get_json(base_url + "/stats")
    assert status == 200
    assert stats["queries"] >= 2
    assert stats["cache_hit_rate"] > 0
    assert "query_latency" in stats and "p99_seconds" in stats["query_latency"]


def test_explain_endpoint(base_url):
    status, payload = get_json(base_url + "/explain")
    assert status == 200
    # pinned to a generation like every other read
    generation = payload.pop("generation")
    _, health = get_json(base_url + "/healthz")
    assert generation <= health["generation"]
    assert payload["environment"]["kind"] == "single"
    assert {q["name"] for q in payload["queries"]} >= {"Query 1-1", "Query 2-1"}
    assert payload["total_estimated_seconds"] > 0


def test_explain_tracks_rule_ingest(base_url):
    """New rules change the plan report the endpoint serves."""
    _, before = get_json(base_url + "/explain")
    rule = {
        "weight": 2.0,
        "head": {"relation": "born_in", "args": ["x", "y"]},
        "body": [{"relation": "live_in", "args": ["x", "y"]}],
        "classes": {"x": "Writer", "y": "Place"},
    }
    status, _ = post_json(base_url + "/rules", {"rules": [rule]})
    assert status == 200
    _, after = get_json(base_url + "/explain")
    assert after["generation"] > before["generation"]
    assert len(after["queries"]) >= len(before["queries"])


def test_snapshot_endpoint_writes_configured_path(base_url, tmp_path):
    status, payload = post_json(base_url + "/snapshot", {})
    assert status == 200
    assert os.path.exists(payload["path"])


def test_dead_letter_retry_on_healthy_service(base_url):
    status, payload = post_json(base_url + "/dead-letter/retry", {})
    assert status == 200
    assert payload["requeued"] == 0
    assert payload["dead_letter"] == {"batches": 0, "facts": 0, "evicted": 0}
    assert isinstance(payload["generation"], int)


def test_dead_letter_retry_replays_failed_evidence():
    """End to end: a failing flush dead-letters, the endpoint requeues,
    and the next flush applies the facts for real."""
    kb = paper_kb()
    kb.classes["Writer"].add("Saul Bellow")
    system = ProbKB(kb, backend="single")
    system.ground()
    service = KBService(
        system,
        ServiceConfig(ingest=IngestConfig(flush_size=4, flush_interval=0.05)),
    ).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        real_apply = service.worker.apply
        service.worker.apply = lambda batch: (_ for _ in ()).throw(
            RuntimeError("backend offline")
        )
        status, accepted = post_json(base + "/evidence", EVIDENCE)
        assert status == 202
        _, stats = get_json(base + "/stats")
        assert stats["dead_letter"] == {"batches": 1, "facts": 1, "evicted": 0}

        service.worker.apply = real_apply
        status, payload = post_json(base + "/dead-letter/retry", {})
        assert status == 200
        assert payload["requeued"] == 1
        assert payload["dead_letter"]["facts"] == 0
        service.flush()
        _, facts = get_json(base + "/facts?subject=Saul+Bellow")
        assert {fact["relation"] for fact in facts["facts"]} >= {
            "born_in",
            "live_in",
            "grow_up_in",
        }
        _, stats = get_json(base + "/stats")
        assert stats["dead_letter_retries"] == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.stop()


def http_error(url, payload=None, method=None):
    try:
        if payload is None:
            urllib.request.urlopen(url, timeout=10)
        else:
            request = urllib.request.Request(
                url, data=json.dumps(payload).encode(), method=method
            )
            urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    raise AssertionError("expected an HTTP error")


class TestErrors:
    def test_unknown_path_404(self, base_url):
        code, payload = http_error(base_url + "/nope")
        assert code == 404 and "unknown path" in payload["error"]

    def test_unknown_parameter_400(self, base_url):
        code, payload = http_error(base_url + "/facts?color=red")
        assert code == 400 and "unknown parameters" in payload["error"]

    def test_bad_min_probability_400(self, base_url):
        for value in ("often", "nan"):
            code, payload = http_error(base_url + f"/facts?min_probability={value}")
            assert code == 400 and "min_probability" in payload["error"], value

    def test_evidence_missing_fields_400(self, base_url):
        code, payload = http_error(
            base_url + "/evidence", {"facts": [{"relation": "born_in"}]}
        )
        assert code == 400 and "missing fields" in payload["error"]

    def test_evidence_empty_list_400(self, base_url):
        code, _ = http_error(base_url + "/evidence", {"facts": []})
        assert code == 400

    def test_evidence_empty_field_values_400(self, base_url):
        fact = dict(EVIDENCE["facts"][0], subject="")
        code, payload = http_error(base_url + "/evidence", {"facts": [fact]})
        assert code == 400 and "non-empty" in payload["error"]

    def test_evidence_non_numeric_weight_400(self, base_url):
        fact = dict(EVIDENCE["facts"][0], weight="heavy")
        code, payload = http_error(base_url + "/evidence", {"facts": [fact]})
        assert code == 400 and "weight" in payload["error"]

    @pytest.mark.parametrize("weight", ["NaN", float("inf")])
    def test_evidence_non_finite_weight_400(self, base_url, weight):
        fact = dict(EVIDENCE["facts"][0], weight=weight)
        code, payload = http_error(base_url + "/evidence", {"facts": [fact]})
        assert code == 400
        assert payload["error"] == f"weight {weight!r} is not finite"
        _, stats = get_json(base_url + "/stats")
        assert stats["queue_depth"] == 0

    def test_evidence_invalid_json_400(self, base_url):
        request = urllib.request.Request(
            base_url + "/evidence", data=b"not json{"
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as error:
            assert error.code == 400
        else:
            raise AssertionError("expected 400")


def test_cli_serve_end_to_end(tmp_path):
    """`repro serve` boots, answers, ingests, and snapshots on SIGINT."""
    kb_dir = str(tmp_path / "kb")
    save_kb(paper_kb(), kb_dir)
    # the CLI example adds evidence about a writer the KB must know
    snapshot = str(tmp_path / "snap.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--kb",
            kb_dir,
            "--port",
            "0",
            "--materialize",
            "--sweeps",
            "100",
            "--snapshot",
            snapshot,
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        base = None
        for line in process.stdout:
            if line.startswith("serving on "):
                base = line.split()[2]
                break
        assert base, "server never reported its address"
        status, health = get_json(base + "/healthz")
        assert status == 200 and health["status"] == "ok"
        _, facts = get_json(base + "/facts?relation=located_in")
        assert facts["count"] == 1
        assert os.path.exists(snapshot)  # written right after grounding
    finally:
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0
