"""The runtime plan-verify gate end to end: grounding results are
bit-identical with the gate on or off, on both backends."""

import pytest

from repro import BackendConfig, ExpansionSession, GroundingConfig, MPPConfig
from repro.datasets import paper_kb

BACKENDS = {
    "serial": BackendConfig(kind="single"),
    "mpp-adaptive": BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=4)),
}


def ground(config, gate, monkeypatch):
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", gate)
    with ExpansionSession(
        paper_kb(with_constraints=True),
        backend=config,
        grounding=GroundingConfig(analysis="off"),
    ) as session:
        assert session.probkb.backend.db.verify_plans is (gate == "1")
        result = session.ground()
        facts = sorted(
            (f.relation, f.subject, f.object) for f in session.probkb.all_facts()
        )
        factors = sorted(session.probkb.factor_rows())
        return result.total_new_facts, facts, factors


@pytest.mark.parametrize("name", sorted(BACKENDS), ids=sorted(BACKENDS))
def test_grounding_is_bit_identical_with_the_gate_on(name, monkeypatch):
    verified = ground(BACKENDS[name], "1", monkeypatch)
    unverified = ground(BACKENDS[name], "0", monkeypatch)
    assert verified == unverified
    new_facts, facts, factors = verified
    assert new_facts > 0 and facts and factors


def test_gate_env_var_drives_the_session(monkeypatch):
    monkeypatch.setenv("PROBKB_VERIFY_PLANS", "1")
    with ExpansionSession(
        paper_kb(), grounding=GroundingConfig(analysis="off")
    ) as session:
        session.ground()  # every executed plan verifies clean, or raises
        assert session.probkb.backend.db.verify_plans is True


def test_session_verify_plans_reports_clean():
    with ExpansionSession(
        paper_kb(),
        backend=BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=4)),
    ) as session:
        reports = session.verify_plans()
        assert reports and all(r.ok for r in reports)
        assert any(r.plan_name.endswith("[static]") for r in reports)
