"""POST /rules: analysis-gated rule ingest over HTTP."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import ProbKB
from repro.core import GroundingConfig
from repro.datasets import paper_kb
from repro.serve import KBService, ServiceConfig, make_server


def post_json(url, payload, timeout=30):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def base_url():
    system = ProbKB(
        paper_kb(),
        backend="single",
        grounding=GroundingConfig(analysis="strict"),
    )
    system.ground()
    service = KBService(system, ServiceConfig()).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.stop()


def rule_payload(body_relation):
    return {
        "weight": 0.8,
        "head": {"relation": "live_in", "args": ["x", "y"]},
        "body": [{"relation": body_relation, "args": ["x", "y"]}],
        "classes": {"x": "Writer", "y": "City"},
    }


def test_post_rules_accepts_clean_rule(base_url):
    status, payload = post_json(
        base_url + "/rules", {"rules": [rule_payload("grow_up_in")]}
    )
    assert status == 200
    assert payload["added"] == 1
    assert payload["generation"] >= 1


def test_post_rules_rejects_degenerate_rule_with_findings(base_url):
    status, payload = post_json(
        base_url + "/rules", {"rules": [rule_payload("teleports_to")]}
    )
    assert status == 422
    assert "static analysis" in payload["error"]
    assert any(f["code"] == "PKB001" for f in payload["findings"])


def test_post_rules_rejected_batch_changes_nothing(base_url):
    status, before = post_json(base_url + "/rules", {"rules": [rule_payload("no_rel")]})
    assert status == 422
    # the same clean rule must still be ingestible afterwards (no
    # half-applied batch left behind by the rollback)
    status, payload = post_json(
        base_url + "/rules", {"rules": [rule_payload("grow_up_in")]}
    )
    assert status == 200
    assert payload["added"] == 1


def test_post_rules_non_finite_weight_is_400(base_url):
    rule = dict(rule_payload("grow_up_in"), weight="NaN")
    status, payload = post_json(base_url + "/rules", {"rules": [rule]})
    assert status == 400
    assert payload["error"] == "rule weight 'NaN' is not finite"
    # nothing was added: the same rule with a finite weight still is
    status, payload = post_json(base_url + "/rules", {"rules": [rule_payload("grow_up_in")]})
    assert status == 200 and payload["added"] == 1


def test_post_rules_malformed_payload_is_400(base_url):
    status, payload = post_json(base_url + "/rules", {"rules": []})
    assert status == 400
    status, payload = post_json(
        base_url + "/rules",
        {"rules": [{"weight": 1.0, "head": {"relation": "live_in"}}]},
    )
    assert status == 400
