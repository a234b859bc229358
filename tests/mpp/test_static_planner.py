"""The static planner: ANALYZE statistics, and — because it asks the
same placement rules as the executor — on exact statistics its plan
tree matches the executor's recorded plan shape operator for operator.
"""

import pytest

from repro.core import MPPBackend, ProbKB
from repro.core.config import MPPConfig
from repro.core.sqlgen import ground_atoms_plan, ground_factors_plan
from repro.datasets.paper_example import paper_kb
from repro.mpp import (
    HashDistribution,
    MPPDatabase,
    RandomDistribution,
    ReplicatedDistribution,
)
from repro.mpp.placement import (
    FALLBACK_BROADCAST_LEFT,
    FALLBACK_BROADCAST_RIGHT,
    FALLBACK_REDISTRIBUTE_BOTH,
    choose_fallback_motion,
)
from repro.mpp.static_planner import StaticPlanner, collect_mpp_statistics
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


def make_db(nseg=4, person_policy=None, city_policy=None):
    db = MPPDatabase(nseg=nseg)
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
        db = make_db(city_policy=ReplicatedDistribution())
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
        db = make_db(person_policy=RandomDistribution())
        assert collect_mpp_statistics(db).distribution("person").kind == "random"

    def test_subset_of_tables(self):
        db = make_db()
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
    def test_static_plan_shape_matches_executed(self, policies):
        """On exact statistics the static tree IS the executed tree."""
        db = make_db(**policies)
        planner = StaticPlanner(collect_mpp_statistics(db), db.nseg)
        for name, factory in plans().items():
            plan = factory()
            static = planner.plan(plan)
            db.query(plan)
            executed = db.last_plan.children[0]
            assert shape(static.root) == shape(executed), name


class TestGroundingParity:
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
    def test_plan_mode_is_not_an_option(self):
        """One planner, no mode: the old spellings are unknown arguments."""
        with pytest.raises(TypeError, match="plan"):
            MPPConfig(plan="adaptive")
        with pytest.raises(TypeError, match="plan"):
            MPPBackend(plan="adaptive")
        with pytest.raises(TypeError, match="plan_mode"):
            MPPDatabase(plan_mode="adaptive")
        assert "plan" not in MPPDatabase(nseg=2).executor_info()
