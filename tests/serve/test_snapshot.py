"""Snapshots: fact-level round trip, warm restart, sqlite export."""

import json
import os
import sqlite3

import pytest

from repro import (
    Atom,
    BackendConfig,
    Fact,
    FunctionalConstraint,
    HornClause,
    InferenceConfig,
    KnowledgeBase,
    MPPConfig,
    ProbKB,
    Relation,
)
from repro.datasets import paper_kb
from repro.delta import DeltaExpander
from repro.serve import export_sqlite, load_snapshot, save_snapshot, snapshot_dict
from repro.serve.snapshot import SNAPSHOT_VERSION

BACKENDS = pytest.mark.parametrize(
    "backend",
    [BackendConfig(), BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=4))],
    ids=["single", "mpp"],
)


def expanded_system():
    kb = paper_kb()
    kb.classes["Writer"].add("Saul Bellow")
    system = ProbKB(kb, backend="single")
    system.ground()
    system.materialize_marginals(config=InferenceConfig(sweeps=200, seed=3))
    return system


def deleting_kb():
    """born_in is functional; the rule derives a second birthplace for
    alice from rome's record, so Query 3 deletes alice's facts (both
    birthplaces) and keeps rome's."""
    return KnowledgeBase(
        classes={"Person": {"alice"}, "City": {"paris", "rome"}},
        relations=[
            Relation("born_in", "Person", "City"),
            Relation("birthplace_of", "City", "Person"),
        ],
        facts=[
            Fact("born_in", "alice", "Person", "paris", "City", 0.9),
            Fact("birthplace_of", "rome", "City", "alice", "Person", 0.8),
        ],
        rules=[
            HornClause.make(
                Atom("born_in", ("x", "y")),
                [Atom("birthplace_of", ("y", "x"))],
                1.0,
                {"x": "Person", "y": "City"},
            )
        ],
        constraints=[FunctionalConstraint("born_in", arg=1, degree=1)],
    )


def fact_level(probkb):
    """The full fact-level content: key and stored weight."""
    return sorted((fact.key, fact.weight) for fact in probkb.all_facts())


class TestRoundTrip:
    def test_facts_round_trip_exactly(self, tmp_path):
        system = expanded_system()
        path = save_snapshot(system, str(tmp_path / "kb.json"))
        warm = load_snapshot(path)
        assert fact_level(warm) == fact_level(system)
        assert warm.fact_count() == system.fact_count()
        assert warm.generation == system.generation

    def test_double_round_trip_is_stable(self, tmp_path):
        """Snapshot of a loaded snapshot is byte-identical."""
        system = expanded_system()
        first = str(tmp_path / "one.json")
        second = str(tmp_path / "two.json")
        save_snapshot(system, first)
        save_snapshot(load_snapshot(first), second)
        assert open(first).read() == open(second).read()

    def test_marginals_round_trip(self, tmp_path):
        system = expanded_system()
        warm = load_snapshot(save_snapshot(system, str(tmp_path / "kb.json")))
        original = dict(system.query_facts(min_probability=0.0))
        restored = dict(warm.query_facts(min_probability=0.0))
        assert {f.key for f in restored} == {f.key for f in original}
        by_key = {fact.key: p for fact, p in original.items()}
        for fact, probability in restored.items():
            assert probability == pytest.approx(by_key[fact.key])

    def test_warm_load_skips_grounding_but_keeps_ingest_working(self, tmp_path):
        system = expanded_system()
        warm = load_snapshot(save_snapshot(system, str(tmp_path / "kb.json")))
        assert warm.grounding is None  # no grounding run happened
        before = warm.fact_count()
        warm.add_evidence(
            [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]
        )
        assert warm.fact_count() > before + 1  # delta inference fired

    @BACKENDS
    def test_warm_start_rebuilds_factors_and_keeps_marginals(self, tmp_path, backend):
        """A warm KB has TΦ (Query 2 over the restored closure), so it
        infers every fact again and re-materializing keeps TProb full."""
        from repro.api import ExpansionSession

        system = expanded_system()
        path = save_snapshot(system, str(tmp_path / "kb.json"))
        with ExpansionSession.from_snapshot(path, backend=backend) as warm:
            assert warm.factor_count() == system.factor_count() > 0
            stored = warm.backend.table_size("TProb")
            assert stored == system.backend.table_size("TProb") > 0
            marginals = warm.infer()
            assert len(marginals) == len(system.infer())
            assert warm.materialize_marginals(marginals) == stored
            assert warm.backend.table_size("TProb") == stored

    @BACKENDS
    def test_warm_start_keeps_the_graveyard(self, tmp_path, backend):
        """The facts Query 3 deleted stay deleted after a warm start: the
        warm KB's first re-grounding (a delta expander priming it) must
        not re-admit the derived birthplace, which alone violates nothing."""
        live = ProbKB(deleting_kb(), backend=backend)
        live.ground()
        assert live.backend.table_size("TDel") == 2
        path = save_snapshot(live, str(tmp_path / "kb.json"))
        warm = load_snapshot(path, backend=backend)
        for system in (live, warm):
            DeltaExpander(system, InferenceConfig(sweeps=10, seed=0)).prime()
        assert fact_level(warm) == fact_level(live)
        assert [f.relation for f in warm.all_facts()] == ["birthplace_of"]
        assert warm.backend.table_size("TDel") == 2

    def test_snapshot_without_marginals(self, tmp_path):
        kb = paper_kb()
        system = ProbKB(kb, backend="single")
        system.ground()
        warm = load_snapshot(save_snapshot(system, str(tmp_path / "kb.json")))
        assert fact_level(warm) == fact_level(system)
        assert all(p is None for _, p in warm.query_facts())


class TestFormat:
    def test_snapshot_dict_is_json_clean(self):
        payload = snapshot_dict(expanded_system())
        json.dumps(payload)  # no unserializable leftovers
        assert payload["format"] == "probkb-snapshot"
        assert payload["version"] == SNAPSHOT_VERSION
        assert payload["facts"] and payload["rules"] and payload["marginals"]

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValueError, match="not a probkb-snapshot"):
            load_snapshot(str(path))

    def test_rejects_unknown_version(self, tmp_path):
        system = expanded_system()
        path = save_snapshot(system, str(tmp_path / "kb.json"))
        payload = json.load(open(path))
        payload["version"] = 99
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_snapshot(path)

    def test_rejects_a_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match=r"list\.json.*JSON object, got list"):
            load_snapshot(str(path))

    def test_rejects_a_missing_field(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(
            json.dumps({"format": "probkb-snapshot", "version": SNAPSHOT_VERSION})
        )
        with pytest.raises(ValueError, match=r"bare\.json.*field 'classes' is missing"):
            load_snapshot(str(path))

    def test_rejects_a_short_fact_row(self, tmp_path):
        path = save_snapshot(expanded_system(), str(tmp_path / "kb.json"))
        payload = json.load(open(path))
        payload["facts"][3] = payload["facts"][3][:2]
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(ValueError, match=r"kb\.json.*facts\[3\] must be a list of 6"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "field, value, kind", [("classes", [], "dict"), ("facts", 5, "list")]
    )
    def test_rejects_a_field_of_the_wrong_type(self, tmp_path, field, value, kind):
        path = save_snapshot(expanded_system(), str(tmp_path / "kb.json"))
        payload = json.load(open(path))
        payload[field] = value
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"kb\.json.*field '{field}' must be a {kind}"):
            load_snapshot(path)

    def test_save_is_atomic(self, tmp_path):
        system = expanded_system()
        path = save_snapshot(system, str(tmp_path / "kb.json"))
        assert not os.path.exists(path + ".tmp")


class TestSqliteExport:
    def test_tables_mirrored_to_disk(self, tmp_path):
        system = expanded_system()
        path = export_sqlite(system, str(tmp_path / "kb.db"))
        conn = sqlite3.connect(path)
        try:
            tp_rows = conn.execute("SELECT COUNT(*) FROM TP").fetchone()[0]
            assert tp_rows == system.fact_count()
            tprob = conn.execute("SELECT COUNT(*) FROM TProb").fetchone()[0]
            assert tprob == system.fact_count()
            names = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            assert {"TP", "TF", "DE", "DR", "TProb"} <= names
        finally:
            conn.close()

    def test_export_overwrites_stale_file(self, tmp_path):
        system = expanded_system()
        path = str(tmp_path / "kb.db")
        export_sqlite(system, path)
        export_sqlite(system, path)  # second run must not fail on CREATE

    def test_mpp_backend_rejected(self, tmp_path):
        system = ProbKB(
            paper_kb(),
            backend=BackendConfig(kind="mpp", mpp=MPPConfig(num_segments=2)),
        )
        system.ground()
        with pytest.raises(ValueError, match="single-node"):
            export_sqlite(system, str(tmp_path / "kb.db"))
