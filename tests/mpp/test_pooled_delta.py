"""Delta flushes on the worker pool equal serial ones.

A flush reads its new factors with one query and appends them to TΦ
with one insert from the master; on a pooled cluster both run through
the workers.  After every flush the shards of TΠ, TΦ and TProb (row
order per segment included), a scan of each through the executor and
the expander's marginals must match the serial cluster's exactly.
Spawns worker processes, so it runs under ``make test-mpp``.
"""

import random

import pytest

from repro import BackendConfig, InferenceConfig, KnowledgeBase, MPPConfig, ProbKB
from repro.datasets import ReVerbSherlockConfig, WorldConfig, generate
from repro.delta import DeltaExpander
from repro.relational import Scan

pytestmark = pytest.mark.mpp

FLUSHES = 10
BATCH = 3


def stream():
    """A small generated KB with ``FLUSHES * BATCH`` facts held out, and
    the batches they arrive in."""
    full = generate(ReVerbSherlockConfig(world=WorldConfig(n_people=40, seed=3), seed=3)).kb
    facts = list(full.facts)
    random.Random(3).shuffle(facts)
    held = facts[: FLUSHES * BATCH]
    kb = KnowledgeBase(
        classes=full.classes,
        relations=[r for declared in full.relation_signatures.values() for r in declared],
        facts=facts[FLUSHES * BATCH :],
        rules=full.rules,
        constraints=full.constraints,
    )
    return kb, [held[i * BATCH : (i + 1) * BATCH] for i in range(FLUSHES)]


def flush_states(policy, num_workers):
    kb, batches = stream()
    backend = BackendConfig(
        kind="mpp",
        mpp=MPPConfig(num_segments=4, num_workers=num_workers, policy=policy),
    )
    states = []
    with ProbKB(kb, backend=backend) as probkb:
        db = probkb.backend.db
        expander = DeltaExpander(probkb, InferenceConfig(sweeps=10, seed=0))
        expander.prime()
        for batch in batches:
            result = expander.expand_delta(batch)
            states.append(
                {
                    "result": (result.new_facts, result.new_factors, result.full_rebuild),
                    "shards": {
                        name: [part.rows for part in db.table(name).parts]
                        for name in ("TP", "TF", "TProb")
                    },
                    "scans": {
                        name: probkb.backend.query(Scan(name)).rows
                        for name in ("TP", "TF", "TProb")
                    },
                    "marginals": dict(expander.marginals),
                }
            )
        assert db.degraded is False
    return states


@pytest.mark.parametrize("policy", ["matviews", "naive"])
def test_pooled_flushes_equal_serial_ones(policy):
    serial = flush_states(policy, num_workers=0)
    pooled = flush_states(policy, num_workers=2)
    assert any(not state["result"][2] and state["result"][1] for state in serial)
    assert pooled == serial
