"""Motion placement, pinned once at the source.

``repro.mpp.placement.place`` is the one rule set both plan walkers
consume, so its decision tables are written here and nowhere else; the
property test then checks the two walkers really are thin: what the
executor ran verifies clean against the independent checker
(``repro.mpp.verify``), and the static planner on exact statistics
produces the executed tree.
"""

import itertools
import random

import pytest

from repro.mpp import (
    HashDistribution,
    MPPDatabase,
    RandomDistribution,
    ReplicatedDistribution,
)
from repro.mpp.placement import (
    BROADCAST,
    GATHER,
    Input,
    place,
    redistribute,
    subset_perm,
    table_dist,
)
from repro.mpp.plannodes import DistDesc
from repro.mpp.static_planner import StaticPlanner, collect_mpp_statistics
from repro.mpp.verify import verify_physical_plan
from repro.relational import (
    Aggregate,
    AntiJoin,
    Distinct,
    Filter,
    HashJoin,
    Project,
    Scan,
    UnionAll,
    Values,
    col,
    eq_const,
    schema,
)
from repro.relational.statistics import TableDistribution
from repro.relational.types import ExecutionError
from repro.relational.verify import verify_plan

ARBITRARY = DistDesc.arbitrary()
REPLICATED = DistDesc.replicated()


def hashed(*columns):
    return DistDesc.hash_on(columns)


L_COLS = ["L.a", "L.b", "L.c"]
R_COLS = ["R.x", "R.y", "R.z"]


def values(columns):
    return Values(columns, [])


def routed(plan, inputs, nseg=4):
    """The moves and output distribution ``place`` chose."""
    placement = place(plan, inputs, nseg)
    return placement.moves, placement.out_dist


def left(dist, rows=100):
    return Input(L_COLS, dist, rows)


def right(dist, rows=100):
    return Input(R_COLS, dist, rows)


# -- (a) decision tables -----------------------------------------------------


def join(left_keys=("a", "b"), right_keys=("x", "y")):
    return HashJoin(values(L_COLS), values(R_COLS), left_keys, right_keys)


@pytest.mark.parametrize(
    "left_in, right_in, moves, out_dist",
    [
        # replicated inputs join locally against anything
        (left(REPLICATED), right(ARBITRARY), (None, None), ARBITRARY),
        (left(REPLICATED), right(hashed("R.z")), (None, None), hashed("R.z")),
        (left(hashed("L.c")), right(REPLICATED), (None, None), hashed("L.c")),
        # both replicated: every segment computes everything, one copy kept
        (left(REPLICATED), right(REPLICATED), (None, None), ARBITRARY),
        # collocated on the full key list, in corresponding order
        (
            left(hashed("L.a", "L.b")),
            right(hashed("R.x", "R.y")),
            (None, None),
            hashed("L.a", "L.b"),
        ),
        # collocated on a corresponding SUBSET of the keys
        (left(hashed("L.b")), right(hashed("R.y")), (None, None), hashed("L.b")),
        # same subset size, different key positions: not collocated —
        # the left stays (join preference), the right follows it
        (
            left(hashed("L.a")),
            right(hashed("R.y")),
            (None, redistribute(["R.x"])),
            hashed("L.a"),
        ),
        # full keys hashed in non-corresponding order: right follows left
        (
            left(hashed("L.b", "L.a")),
            right(hashed("R.x", "R.y")),
            (None, redistribute(["R.y", "R.x"])),
            hashed("L.b", "L.a"),
        ),
        # only the right is hashed within its keys: left follows it
        (
            left(ARBITRARY),
            right(hashed("R.y")),
            (redistribute(["L.b"]), None),
            hashed("R.y"),
        ),
        # hashed on a non-key column counts as not collocatable
        (
            left(hashed("L.c")),
            right(hashed("R.y")),
            (redistribute(["L.b"]), None),
            hashed("R.y"),
        ),
    ],
)
def test_join_placement_by_distribution(left_in, right_in, moves, out_dist):
    assert routed(join(), [left_in, right_in]) == (moves, out_dist)


@pytest.mark.parametrize(
    "left_rows, right_rows, nseg, moves, out_dist",
    [
        # the three fallback outcomes when neither side is collocatable
        (10, 10_000, 4, (BROADCAST, None), hashed("R.z")),
        (10_000, 10, 4, (None, BROADCAST), ARBITRARY),
        (
            100,
            100,
            4,
            (redistribute(["L.a", "L.b"]), redistribute(["R.x", "R.y"])),
            hashed("L.a", "L.b"),
        ),
        # the crossover moves with nseg: broadcasting 30 rows beats
        # shipping 130 once on 4 segments (120 < 130) but not on 5
        (30, 100, 4, (BROADCAST, None), hashed("R.z")),
        (
            30,
            100,
            5,
            (redistribute(["L.a", "L.b"]), redistribute(["R.x", "R.y"])),
            hashed("L.a", "L.b"),
        ),
        # a tie in size broadcasts the left
        (5, 5, 1, (BROADCAST, None), hashed("R.z")),
    ],
)
def test_join_fallback_is_cost_based(left_rows, right_rows, nseg, moves, out_dist):
    inputs = [left(ARBITRARY, left_rows), right(hashed("R.z"), right_rows)]
    assert routed(join(), inputs, nseg) == (moves, out_dist)


def test_join_keys_resolve_unqualified_names():
    plan = join(left_keys=["b"], right_keys=["y"])
    inputs = [left(hashed("L.b")), right(ARBITRARY)]
    assert routed(plan, inputs) == ((None, redistribute(["R.y"])), hashed("L.b"))


def anti_join():
    return AntiJoin(values(L_COLS), values(R_COLS), ["a", "b"], ["x", "y"])


@pytest.mark.parametrize(
    "left_in, right_in, moves, out_dist",
    [
        # a replicated right side is complete on every segment
        (left(ARBITRARY), right(REPLICATED), (None, None), ARBITRARY),
        (left(hashed("L.c")), right(REPLICATED), (None, None), hashed("L.c")),
        # ... and against a replicated left each copy sees the same
        # right rows, so one copy's survivors are the answer
        (left(REPLICATED), right(REPLICATED), (None, None), ARBITRARY),
        (left(hashed("L.b")), right(hashed("R.y")), (None, None), hashed("L.b")),
        # anti-join preference: the right stays, the left follows it
        (
            left(hashed("L.a")),
            right(hashed("R.y")),
            (redistribute(["L.b"]), None),
            hashed("L.b"),
        ),
        (
            left(hashed("L.a")),
            right(ARBITRARY),
            (None, redistribute(["R.x"])),
            hashed("L.a"),
        ),
        # never a broadcast of the preserved side, whatever the sizes
        (
            left(ARBITRARY, rows=1),
            right(ARBITRARY, rows=10_000),
            (redistribute(["L.a", "L.b"]), redistribute(["R.x", "R.y"])),
            hashed("L.a", "L.b"),
        ),
        # a replicated left against a partitioned right must be
        # partitioned too, or every copy would test one segment's rows
        (
            left(REPLICATED),
            right(hashed("R.y")),
            (redistribute(["L.b"]), None),
            hashed("L.b"),
        ),
    ],
)
def test_anti_join_placement(left_in, right_in, moves, out_dist):
    assert routed(anti_join(), [left_in, right_in]) == (moves, out_dist)


@pytest.mark.parametrize(
    "dist, moves, out_dist",
    [
        (ARBITRARY, (redistribute(L_COLS),), hashed(*L_COLS)),
        (hashed("L.c"), (None,), hashed("L.c")),
        (REPLICATED, (None,), REPLICATED),
    ],
)
def test_distinct_placement(dist, moves, out_dist):
    plan = Distinct(values(L_COLS))
    assert routed(plan, [left(dist)]) == (moves, out_dist)


@pytest.mark.parametrize(
    "group_by, dist, moves, out_dist",
    [
        # hashed within the group keys: groups are already together
        (["a", "b"], hashed("L.b"), (None,), hashed("a", "b")),
        (["L.a"], hashed("L.a"), (None,), hashed("L.a")),
        (["a", "b"], hashed("L.c"), (redistribute(["L.a", "L.b"]),), hashed("a", "b")),
        (["a"], hashed("L.a", "L.b"), (redistribute(["L.a"]),), hashed("a")),
        (["a"], ARBITRARY, (redistribute(["L.a"]),), hashed("a")),
        (["a"], REPLICATED, (redistribute(["L.a"]),), hashed("a")),
        # a global aggregate is computed where all the rows are
        ([], hashed("L.a"), (GATHER,), ARBITRARY),
        ([], REPLICATED, (GATHER,), ARBITRARY),
    ],
)
def test_aggregate_placement(group_by, dist, moves, out_dist):
    plan = Aggregate(values(L_COLS), group_by, [("count", None, "n")])
    assert routed(plan, [left(dist)]) == (moves, out_dist)


@pytest.mark.parametrize(
    "dists, out_dist",
    [
        ([hashed("a"), hashed("a")], hashed("a")),
        ([hashed("a"), hashed("b")], ARBITRARY),
        ([hashed("a"), ARBITRARY], ARBITRARY),
        # a replicated child contributes one copy, placed anywhere
        ([REPLICATED, REPLICATED], ARBITRARY),
        ([hashed("a"), REPLICATED], ARBITRARY),
    ],
)
def test_union_never_moves_and_keeps_a_shared_distribution(dists, out_dist):
    plan = UnionAll([values(["a", "b"]) for _ in dists])
    inputs = [Input(["a", "b"], dist, 10) for dist in dists]
    assert routed(plan, inputs) == ((None,) * len(dists), out_dist)


@pytest.mark.parametrize(
    "outputs, dist, out_dist",
    [
        # hash columns are tracked through renames ...
        ([(col("L.a"), "k"), (col("L.c"), "v")], hashed("L.a"), hashed("k")),
        # ... first rename wins when a column is projected twice
        ([(col("a"), "k1"), (col("a"), "k2")], hashed("L.a"), hashed("k1")),
        # ... and lost when a hash column is projected away
        ([(col("L.c"), "v")], hashed("L.a"), ARBITRARY),
        ([(col("L.a"), "k")], hashed("L.a", "L.b"), ARBITRARY),
        ([(col("L.c"), "v")], REPLICATED, REPLICATED),
        ([(col("L.c"), "v")], ARBITRARY, ARBITRARY),
    ],
)
def test_project_placement(outputs, dist, out_dist):
    plan = Project(values(L_COLS), outputs)
    assert routed(plan, [left(dist)]) == ((None,), out_dist)


@pytest.mark.parametrize("dist", [ARBITRARY, hashed("L.a"), REPLICATED])
def test_filter_and_values_never_move(dist):
    plan = Filter(values(L_COLS), eq_const("a", 1))
    assert routed(plan, [left(dist)]) == ((None,), dist)
    assert routed(values(L_COLS), []) == ((), ARBITRARY)


def test_placement_rejects_nodes_without_a_rule():
    # a scan reads a stored table where it lies: the walkers never ask
    with pytest.raises(ExecutionError, match="no placement rule for Scan"):
        place(Scan("t"), [], 4)


def unary(dist):
    return [left(dist)]


@pytest.mark.parametrize(
    "plan, inputs, once",
    [
        # full copies in, one copy out: computed on segment 0 only
        (join(), [left(REPLICATED), right(REPLICATED)], (True, True)),
        (anti_join(), [left(REPLICATED), right(REPLICATED)], (True, True)),
        # a partitioned side makes every segment's share count
        (join(), [left(REPLICATED), right(hashed("R.x"))], (False, False)),
        # (the replicated left is redistributed to meet the right)
        (anti_join(), [left(REPLICATED), right(hashed("R.y"))], (False, False)),
        # full copies in, full copies out: every segment keeps its copy
        (Filter(values(L_COLS), eq_const("a", 1)), unary(REPLICATED), (False,)),
        (Project(values(L_COLS), [(col("a"), "a")]), unary(REPLICATED), (False,)),
        (Distinct(values(L_COLS)), unary(REPLICATED), (False,)),
        # a global aggregate runs where its gathered input is
        (Aggregate(values(L_COLS), [], [("count", None, "n")]), unary(hashed("L.a")), (True,)),
        (Aggregate(values(L_COLS), [], [("count", None, "n")]), unary(REPLICATED), (True,)),
        (Aggregate(values(L_COLS), ["a"], [("count", None, "n")]), unary(REPLICATED), (False,)),
        # a replicated union child contributes its rows on segment 0 only
        (
            UnionAll([values(["a", "b"]), values(["a", "b"])]),
            [Input(["a", "b"], hashed("a"), 10), Input(["a", "b"], REPLICATED, 10)],
            (False, True),
        ),
        # no input: the interpreter computes it once, on segment 0
        (values(L_COLS), [], ()),
    ],
)
def test_run_once_rule(plan, inputs, once):
    assert place(plan, inputs, 4).once == once


def test_subset_perm_is_positions_in_hash_order():
    keys = ["L.a", "L.b", "L.c"]
    assert subset_perm(hashed("L.c", "L.a"), keys) == (2, 0)
    assert subset_perm(hashed("L.a", "L.z"), keys) is None
    assert subset_perm(ARBITRARY, keys) is None
    assert subset_perm(REPLICATED, keys) is None


@pytest.mark.parametrize(
    "layout, alias, dist",
    [
        (HashDistribution(["a", "b"]), "t", hashed("t.a", "t.b")),
        (HashDistribution(["a", "b"]), None, hashed("a", "b")),
        (RandomDistribution(), "t", ARBITRARY),
        (ReplicatedDistribution(), "t", REPLICATED),
        (TableDistribution.hash_on(["a"]), "t", hashed("t.a")),
        (TableDistribution.hash_on(["a"]), None, hashed("a")),
        (TableDistribution.random(), "t", ARBITRARY),
        (TableDistribution.replicated(), "t", REPLICATED),
    ],
)
def test_table_dist_reads_policies_and_catalog_layouts(layout, alias, dist):
    assert table_dist(layout, alias) == dist


# -- (b) the walkers over random plans ---------------------------------------

# column names are unique across tables (and a plan scans each table at
# most once): the checker compares hash columns by unqualified suffix,
# so a self-join's ``t0.a`` and ``t1.a`` would read as the same column
TABLES = {
    "big": (["a", "b", "c"], [(i, i % 6, i % 4) for i in range(48)]),
    "mid": (["d", "e", "f"], [(i, i % 5, i % 4) for i in range(20)]),
    "tiny": (["g", "h", "i"], [(i, i, i % 2) for i in range(5)]),
}


def random_policy(rng, columns):
    kind = rng.choice(["hash", "hash", "random", "replicated"])
    if kind == "hash":
        return HashDistribution(rng.sample(columns, rng.choice([1, 1, 2])))
    if kind == "random":
        return RandomDistribution()
    return ReplicatedDistribution()


def random_cluster(rng, nseg):
    db = MPPDatabase(nseg=nseg)
    for name, (columns, rows) in TABLES.items():
        db.create_table(
            schema(name, *(f"{column}:int" for column in columns)),
            random_policy(rng, columns),
        )
        db.bulkload(name, rows)
    return db


def rename_all(rng, plan, prefix):
    """A projection that renames (and shuffles) every column."""
    columns = plan.output_columns
    order = rng.sample(range(len(columns)), len(columns))
    return Project(plan, [(col(columns[i]), f"{prefix}{i}") for i in order])


def random_leaf(rng, table):
    scan = Scan(table, table[0])
    scan.set_table_columns(TABLES[table][0])
    if rng.random() < 0.3:
        return rename_all(rng, scan, f"{table}_")
    return scan


def random_join(rng, cls, left_plan, right_plan):
    width = rng.choice([1, 1, 2])
    return cls(
        left_plan,
        right_plan,
        rng.sample(left_plan.output_columns, width),
        rng.sample(right_plan.output_columns, width),
    )


def random_plan(rng):
    """A random plan and whether every size a join's fallback can see is
    exactly known from table statistics (joins over leaves only)."""
    exact = True
    # a fresh name per aggregate: a stacked group-by may take an earlier
    # count as a key, and then must not emit a second column of its name
    counts = (f"n{i}" for i in itertools.count())
    leaves = [random_leaf(rng, table) for table in rng.sample(sorted(TABLES), 3)]
    shape = rng.choice(["leaf", "join", "join", "anti", "union", "deep"])
    if shape == "leaf":
        plan = leaves[0]
    elif shape == "union":
        plan = UnionAll(leaves[: rng.choice([2, 3])])
    elif shape == "anti":
        plan = random_join(rng, AntiJoin, leaves[0], leaves[1])
    else:
        plan = random_join(rng, HashJoin, leaves[0], leaves[1])
        if shape == "deep":
            # the inner join's size is an estimate to the static planner
            exact = False
            inner = rng.choice([plan, Distinct(plan), rename_all(rng, plan, "j")])
            plan = random_join(
                rng, rng.choice([HashJoin, AntiJoin]), inner, leaves[2]
            )
    for _ in range(rng.randint(0, 2)):
        columns = plan.output_columns
        step = rng.choice(["distinct", "group", "rename", "filter"])
        if step == "distinct":
            plan = Distinct(plan)
        elif step == "group":
            keys = rng.sample(columns, rng.choice([1, 2]))
            plan = Aggregate(plan, keys, [("count", None, next(counts))])
        elif step == "rename":
            plan = rename_all(rng, plan, f"p{len(columns)}_")
        else:
            plan = Filter(plan, eq_const(rng.choice(columns), 1))
    # at most one operator that needs all rows on one segment, on top:
    # stacking two makes the second gather a (harmless) PKB210 warning
    if rng.random() < 0.4:
        plan = Aggregate(plan, [], [("count", None, next(counts))])
    return plan, exact


def tree_shape(node):
    return (node.kind, node.detail, tuple(tree_shape(c) for c in node.children))


@pytest.mark.parametrize("nseg", [1, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_walkers_agree_and_executed_plans_verify_clean(seed, nseg):
    rng = random.Random(1000 * seed + nseg)
    shapes_compared = 0
    for _ in range(40):
        db = random_cluster(rng, nseg)
        plan, exact = random_plan(rng)
        # no error (what PROBKB_VERIFY_PLANS rejects); unions of
        # different tables and stacked dedups warn (PKB206 / PKB208)
        logical = verify_plan(plan, tables=db.tables)
        assert logical.ok, (plan.explain(), logical.render())
        planner = StaticPlanner(collect_mpp_statistics(db), nseg)
        static = planner.plan(plan)
        db.query(plan)
        executed = db.last_plan.children[0]
        table_dists = {
            name: table_dist(table.policy) for name, table in db.tables.items()
        }
        report = verify_physical_plan(executed, nseg, table_dists=table_dists)
        assert report.findings == (), (executed.explain(), report.findings)
        if nseg > 1 and exact:
            assert tree_shape(static.root) == tree_shape(executed), (
                static.root.explain(),
                executed.explain(),
            )
            shapes_compared += 1
    assert nseg == 1 or shapes_compared >= 20
