"""A flush that deletes nothing maintains TΦ with one query and one
insert: the disjoint Query 2-i variants of every partition and the
flush's singleton factors are read as one UnionAll and appended to TΦ in
one statement, with no staging table in between."""

import pytest

from repro import BackendConfig, Fact, InferenceConfig, MPPConfig, ProbKB
from repro.datasets import paper_kb
from repro.delta import DeltaExpander
from repro.delta.grounding import DeltaGrounder
from repro.relational import PlanNode
from repro.relational.plan import scans_of

#: every Backend method that issues a statement
STATEMENTS = (
    "create_table",
    "bulkload",
    "query",
    "insert_rows",
    "insert_from",
    "insert_from_with_ids",
    "truncate",
    "delete_in",
)


def spy_statements(monkeypatch, backend):
    """Log every statement ``backend`` issues as (method, tables named,
    issued by the factor maintenance step)."""
    log = []
    maintaining = [False]
    real_factors = DeltaGrounder._ground_delta_factors

    def factors(self, since):
        maintaining[0] = True
        try:
            return real_factors(self, since)
        finally:
            maintaining[0] = False

    monkeypatch.setattr(DeltaGrounder, "_ground_delta_factors", factors)
    for name in STATEMENTS:
        real = getattr(backend, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            tables = set()
            for arg in args:
                if isinstance(arg, str):
                    tables.add(arg)
                elif isinstance(arg, PlanNode):
                    tables.update(scan.table_name for scan in scans_of(arg))
            log.append((_name, tables, maintaining[0]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(backend, name, spy)
    return log


@pytest.mark.parametrize(
    "backend",
    [BackendConfig(), BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=4))],
    ids=["single", "mpp"],
)
def test_factor_maintenance_is_one_query_and_one_insert(monkeypatch, backend):
    kb = paper_kb()
    kb.classes["Writer"].add("Saul Bellow")
    with ProbKB(kb, backend=backend) as probkb:
        probkb.ground()
        expander = DeltaExpander(probkb, InferenceConfig(sweeps=10, seed=0))
        expander.prime()
        log = spy_statements(monkeypatch, probkb.backend)
        result = expander.expand_delta(
            [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]
        )
    assert not result.full_rebuild
    assert result.new_factors > 0
    maintenance = [(name, tables) for name, tables, inside in log if inside]
    assert [name for name, _ in maintenance] == ["query", "insert_rows"]
    assert maintenance[1][1] == {"TF"}
    assert all("TFNew" not in tables for _, tables, _ in log)
