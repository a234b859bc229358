"""Static planning mode: estimates drive motions, results never change.

``plan="static"`` must be a pure *latency* trade (decide motions before
reading any row) — rows stay bit-identical to adaptive mode, and on
exact statistics the statically chosen plan tree matches the adaptive
executor's recorded plan shape operator for operator.
"""

import pytest

from repro.core import MPPBackend, ProbKB
from repro.core.config import BackendConfig, MPPConfig, build_backend
from repro.core.sqlgen import ground_atoms_plan, ground_factors_plan
from repro.datasets.paper_example import paper_kb
from repro.mpp import (
    HashDistribution,
    MPPDatabase,
    RandomDistribution,
    ReplicatedDistribution,
)
from repro.mpp.static_planner import (
    FALLBACK_BROADCAST_LEFT,
    FALLBACK_BROADCAST_RIGHT,
    FALLBACK_REDISTRIBUTE_BOTH,
    StaticPlanner,
    choose_fallback_motion,
    collect_mpp_statistics,
)
from repro.relational import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    col,
    eq_const,
    schema,
)

PEOPLE = [(i, f"p{i}", (i % 7) * 10) for i in range(60)]
CITIES = [(c * 10, f"city{c}", c * 1000) for c in range(7)]


def make_db(plan_mode, nseg=4, person_policy=None, city_policy=None):
    db = MPPDatabase(nseg=nseg, plan_mode=plan_mode)
    db.create_table(
        schema("person", "id:int", "name:text", "city:int"),
        person_policy or HashDistribution(["id"]),
    )
    db.create_table(
        schema("city", "id:int", "name:text", "pop:int"),
        city_policy or HashDistribution(["id"]),
    )
    db.bulkload("person", PEOPLE)
    db.bulkload("city", CITIES)
    return db


def plans():
    return {
        "scan": lambda: Scan("person"),
        "filter": lambda: Filter(Scan("person", "P"), eq_const("P.city", 30)),
        "join": lambda: HashJoin(
            Scan("person", "P"), Scan("city", "C"), ["P.city"], ["C.id"]
        ),
        "aggregate": lambda: Aggregate(
            Scan("person", "P"),
            group_by=["P.city"],
            aggregates=[("count", None, "n")],
        ),
        "distinct": lambda: Distinct(
            Project(Scan("person", "P"), [(col("P.city"), "city")])
        ),
    }


def shape(node):
    """A plan tree's structure, ignoring rows/seconds (which differ
    between an estimate and an execution)."""
    return (node.kind, node.detail, tuple(shape(c) for c in node.children))


class TestFallbackChoice:
    def test_broadcasts_the_smaller_side(self):
        assert choose_fallback_motion(10, 10_000, 4) == FALLBACK_BROADCAST_LEFT
        assert choose_fallback_motion(10_000, 10, 4) == FALLBACK_BROADCAST_RIGHT

    def test_redistributes_balanced_inputs(self):
        # broadcast cost 100*4 >= 100+100: ship each side once instead
        assert choose_fallback_motion(100, 100, 4) == FALLBACK_REDISTRIBUTE_BOTH

    def test_single_segment_prefers_redistribute_tie(self):
        # nseg=1: broadcast_cost == small_rows, strictly less than the sum
        assert choose_fallback_motion(5, 100, 1) == FALLBACK_BROADCAST_LEFT


class TestCollectStatistics:
    def test_analyze_reads_layout_and_skew(self):
        db = make_db("adaptive", city_policy=ReplicatedDistribution())
        catalog = collect_mpp_statistics(db)
        assert set(catalog.table_names) == {"person", "city"}
        person = catalog.stats("person")
        assert person.rows == len(PEOPLE)
        assert person.column("id").distinct == len(PEOPLE)
        assert person.column("city").distinct == 7
        assert catalog.distribution("person").columns == ("id",)
        assert catalog.distribution("city").kind == "replicated"
        assert catalog.num_segments == db.nseg

    def test_random_policy_maps_to_random(self):
        db = make_db("adaptive", person_policy=RandomDistribution())
        assert collect_mpp_statistics(db).distribution("person").kind == "random"

    def test_subset_of_tables(self):
        db = make_db("adaptive")
        catalog = collect_mpp_statistics(db, ["city"])
        assert list(catalog.table_names) == ["city"]
        assert "person" not in catalog


@pytest.mark.parametrize(
    "policies",
    [
        {},  # collocation decided purely by hash layout
        {"person_policy": RandomDistribution()},  # forces fallback motions
        {
            "person_policy": RandomDistribution(),
            "city_policy": RandomDistribution(),
        },
    ],
    ids=["hash", "random-left", "random-both"],
)
class TestStaticModeParity:
    def test_rows_bit_identical(self, policies):
        adaptive = make_db("adaptive", **policies)
        static = make_db("static", **policies)
        for name, factory in plans().items():
            ours = adaptive.query(factory())
            theirs = static.query(factory())
            # identical rows in identical order, not just same sets
            assert ours.rows == theirs.rows, name
            assert ours.columns == theirs.columns, name
        assert adaptive.last_static_plan is None
        assert static.last_static_plan is not None

    def test_static_plan_shape_matches_executed(self, policies):
        """On exact statistics the static tree IS the adaptive tree."""
        adaptive = make_db("adaptive", **policies)
        static = make_db("static", **policies)
        for name, factory in plans().items():
            adaptive.query(factory())
            static.query(factory())
            executed = adaptive.last_plan.children[0]
            assert shape(static.last_static_plan.root) == shape(executed), name
            # and the static executor really ran the predicted shape
            assert shape(static.last_plan.children[0]) == shape(executed), name


class TestGroundingParity:
    def ground(self, plan_mode):
        backend = MPPBackend(nseg=4, plan=plan_mode)
        system = ProbKB(paper_kb(), backend=backend)
        result = system.ground()
        outcome = {
            # exact per-segment rows: static motion choices must place
            # every row exactly where the adaptive ones do
            "tp_parts": [part.rows for part in backend.db.table("TP").parts],
            "tf_parts": [part.rows for part in backend.db.table("TF").parts],
            "iterations": [
                (s.new_facts, s.removed_facts, s.fact_count, s.seconds)
                for s in result.iterations
            ],
            "factors": result.factors,
            "elapsed": backend.elapsed_seconds,
        }
        return backend, outcome

    def test_paper_example_identical(self):
        adaptive_backend, adaptive = self.ground("adaptive")
        static_backend, static = self.ground("static")
        assert adaptive == static
        assert adaptive_backend.db.last_static_plan is None
        assert static_backend.db.last_static_plan is not None
        assert static_backend.executor_info()["plan"] == "static"

    def test_naive_policy_identical(self):
        backends = []
        for plan_mode in ("adaptive", "static"):
            backend = MPPBackend(nseg=4, plan=plan_mode, use_matviews=False)
            ProbKB(paper_kb(), backend=backend).ground()
            backends.append(backend)
        adaptive, static = backends
        # estimate-driven fallbacks may cost differently than the
        # adaptive ones under the naive policy, but every row must land
        # on the same segment either way
        assert [p.rows for p in adaptive.db.table("TP").parts] == [
            p.rows for p in static.db.table("TP").parts
        ]
        assert [p.rows for p in adaptive.db.table("TF").parts] == [
            p.rows for p in static.db.table("TF").parts
        ]

    def test_grounding_query_motions_match(self):
        """Acceptance: on the paper example, the statically chosen
        motions equal the adaptive executor's recorded plan, per query."""
        backend = MPPBackend(nseg=4)
        ProbKB(paper_kb(), backend=backend)
        planner = StaticPlanner(collect_mpp_statistics(backend.db), backend.nseg)
        for partition in (1, 3):
            for build in (ground_atoms_plan, ground_factors_plan):
                plan = build(partition, backend)
                static = planner.plan(plan)
                backend.query(plan)
                executed = backend.db.last_plan.children[0]
                assert shape(static.root) == shape(executed), (
                    build.__name__,
                    partition,
                )


class TestConfigSurface:
    def test_mpp_config_validates_plan(self):
        assert MPPConfig(plan="static").plan == "static"
        with pytest.raises(ValueError, match="plan"):
            MPPConfig(plan="bogus")

    def test_backend_config_builds_static_backend(self):
        config = BackendConfig(
            kind="mpp", mpp=MPPConfig(num_segments=2, plan="static")
        )
        backend = build_backend(config)
        assert backend.db.plan_mode == "static"
        assert backend.executor_info() == {
            "mode": "serial",
            "segments": 2,
            "workers": 0,
            "degraded": False,
            "plan": "static",
            "engine": "columnar",
        }
