"""Property-based tests (hypothesis) on the core invariants."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    PARTITION_BODY_PATTERNS,
    classify_clause,
    clause_from_identifier,
)
from repro.infer import FactorGraph, GibbsSampler, exact_marginals
from repro.mpp import (
    HashDistribution,
    MPPDatabase,
    RandomDistribution,
    ReplicatedDistribution,
    partition_batch,
    partition_parts,
    stable_hash,
)
from repro.mpp.distribution import stable_hash_int64
from repro.relational import ColumnBatch, Database, Distinct, HashJoin, Scan, schema

# -- strategies ---------------------------------------------------------------

names = st.text(alphabet="abcdefg", min_size=1, max_size=4)
small_int = st.integers(min_value=0, max_value=6)
rows2 = st.lists(st.tuples(small_int, small_int), max_size=40)


# -- relational engine ----------------------------------------------------------


@given(left=rows2, right=rows2)
@settings(max_examples=60, deadline=None)
def test_hash_join_matches_nested_loop(left, right):
    db = Database()
    db.create_table(schema("l", "a:int", "b:int"))
    db.create_table(schema("r", "c:int", "d:int"))
    db.bulkload("l", left)
    db.bulkload("r", right)
    plan = HashJoin(Scan("l"), Scan("r"), ["l.b"], ["r.c"])
    got = Counter(db.query(plan).rows)
    expected = Counter(
        lrow + rrow for lrow in left for rrow in right if lrow[1] == rrow[0]
    )
    assert got == expected


@given(rows=rows2)
@settings(max_examples=40, deadline=None)
def test_distinct_is_set_semantics(rows):
    db = Database()
    db.create_table(schema("t", "a:int", "b:int"))
    db.bulkload("t", rows)
    result = db.query(Distinct(Scan("t")))
    assert sorted(result.rows) == sorted(set(map(tuple, rows)))


@given(rows=rows2)
@settings(max_examples=40, deadline=None)
def test_unique_key_inserts_are_idempotent(rows):
    db = Database()
    db.create_table(schema("t", "a:int", "b:int", unique_key=["a", "b"]))
    db.bulkload("t", rows)
    before = len(db.table("t"))
    db.bulkload("t", rows)  # inserting the same rows again adds nothing
    assert len(db.table("t")) == before == len(set(map(tuple, rows)))


@given(rows=rows2, nseg=st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_mpp_scan_preserves_multiset(rows, nseg):
    cluster = MPPDatabase(nseg=nseg)
    cluster.create_table(schema("t", "a:int", "b:int"), HashDistribution(["a"]))
    cluster.bulkload("t", rows)
    result = cluster.query(Scan("t"))
    assert Counter(result.rows) == Counter(map(tuple, rows))


@given(left=rows2, right=rows2, nseg=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mpp_join_matches_single_node(left, right, nseg):
    single = Database()
    cluster = MPPDatabase(nseg=nseg)
    for engine in (single, cluster):
        if isinstance(engine, Database):
            engine.create_table(schema("l", "a:int", "b:int"))
            engine.create_table(schema("r", "c:int", "d:int"))
        else:
            engine.create_table(schema("l", "a:int", "b:int"), HashDistribution(["b"]))
            engine.create_table(schema("r", "c:int", "d:int"), HashDistribution(["d"]))
        engine.bulkload("l", left)
        engine.bulkload("r", right)
    plan = lambda: HashJoin(Scan("l"), Scan("r"), ["l.b"], ["r.c"])
    assert Counter(single.query(plan()).rows) == Counter(cluster.query(plan()).rows)


@given(rows=rows2, nseg=st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_partition_batch_is_a_partition(rows, nseg):
    batch = ColumnBatch.from_rows(["a", "b"], rows)
    shards = partition_batch(batch, HashDistribution(["a"]), (0,), nseg)
    assert sum(shard.nrows for shard in shards) == len(rows)
    recombined = Counter(row for shard in shards for row in shard.to_rows())
    assert recombined == Counter(map(tuple, rows))
    # deterministic placement: same key -> same shard; input order kept
    for seg, shard in enumerate(shards):
        assert shard.to_rows() == [
            row for row in rows if stable_hash((row[0],)) % nseg == seg
        ]
    # random: round-robin, and the policy's counter carries on across calls
    policy = RandomDistribution()
    for start in (0, len(rows)):
        shards = partition_batch(batch, policy, (), nseg)
        for seg, shard in enumerate(shards):
            assert shard.to_rows() == [
                row for i, row in enumerate(rows, start) if i % nseg == seg
            ]
    # replicated: the same batch everywhere, not a copy per segment
    copies = partition_batch(batch, ReplicatedDistribution(), (), nseg)
    assert len(copies) == nseg and all(copy is batch for copy in copies)


key_value = st.one_of(
    st.none(),
    names,
    st.integers(-9, 9),
    st.sampled_from([-(2 ** 63), 2 ** 63 - 1, 2 ** 63, -(2 ** 70), 2 ** 40]),
)
#: columns drawn from one kind (typed when int) and from all of them
key_column = st.sampled_from([st.integers(-9, 9), st.integers(-(2 ** 62), 2 ** 62), key_value])


@given(data=st.data(), nseg=st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_partition_batch_assigns_segments_like_per_row_stable_hash(data, nseg):
    """Hashing each distinct key once must place every row where
    ``stable_hash(key) % nseg`` of its own key does."""
    nrows = data.draw(st.integers(0, 30))
    cols = [
        data.draw(st.lists(kind, min_size=nrows, max_size=nrows))
        for kind in data.draw(st.lists(key_column, min_size=2, max_size=3))
    ]
    rows = list(zip(*cols))
    batch = ColumnBatch.from_rows([f"c{i}" for i in range(len(cols))], rows)
    positions = data.draw(st.sampled_from([(0,), (1, 0), tuple(range(len(cols)))]))
    shards = partition_batch(
        batch, HashDistribution([f"c{p}" for p in positions]), positions, nseg
    )
    for seg, shard in enumerate(shards):
        assert shard.to_rows() == [
            row for row in rows
            if stable_hash(tuple(row[p] for p in positions)) % nseg == seg
        ]
    policy = RandomDistribution()
    for start in (0, nrows):  # round-robin, the counter carries on
        for seg, shard in enumerate(partition_batch(batch, policy, (), nseg)):
            assert shard.to_rows() == [
                row for i, row in enumerate(rows, start) if i % nseg == seg
            ]


#: int64 values whose canonical form sits on an edge: every digit count
#: from both sides, both signs, and the int64 extremes
int64_edges = sorted(
    {0, -1, 2 ** 63 - 1, -(2 ** 63)}
    | {sign * (10 ** k - d) for k in range(19) for d in (0, 1) for sign in (1, -1)}
)
int64_value = st.one_of(
    st.sampled_from(int64_edges), st.integers(-(2 ** 63), 2 ** 63 - 1)
)


def test_stable_hash_int64_covers_every_edge_value():
    np = pytest.importorskip("numpy")
    for width in range(6):
        rows = [tuple(int64_edges[(i + k) % len(int64_edges)] for k in range(width))
                for i in range(len(int64_edges))]
        arrays = [np.array(column, np.int64) for column in zip(*rows)]
        assert stable_hash_int64(arrays, len(rows)).tolist() == list(map(stable_hash, rows))


@given(data=st.data(), width=st.integers(0, 5), nrows=st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_stable_hash_int64_equals_stable_hash(data, width, nrows):
    """The vectorised kernel is :func:`stable_hash` bit for bit; width 0
    is ``crc32(b"") == 0``."""
    np = pytest.importorskip("numpy")
    rows = data.draw(
        st.lists(st.tuples(*[int64_value] * width), min_size=nrows, max_size=nrows)
    )
    arrays = [np.array([row[k] for row in rows], np.int64) for k in range(width)]
    got = stable_hash_int64(arrays, nrows)
    assert got.dtype == np.uint32
    assert got.tolist() == [stable_hash(row) for row in rows]


@given(data=st.data(), nseg=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_partition_parts_routes_every_part_like_per_row_stable_hash(data, nseg):
    """One call over 1-8 source parts (0 to 480 rows together, so both
    sides of the scalar / kernel crossover): each part's pieces are its
    rows routed by ``stable_hash(key) % nseg``, in row order."""
    sizes = data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=8))
    kind = data.draw(st.sampled_from([st.integers(-50, 50), int64_value, key_value]))
    parts_rows = [
        data.draw(st.lists(st.tuples(kind, st.integers(-9, 9)), min_size=n, max_size=n))
        for n in sizes
    ]
    parts = [ColumnBatch.from_rows(["k", "v"], rows) for rows in parts_rows]
    positions = data.draw(st.sampled_from([(0,), (1, 0)]))
    routed = partition_parts(parts, HashDistribution(["k"]), positions, nseg)
    assert len(routed) == len(parts)
    for rows, pieces in zip(parts_rows, routed):
        assert [piece.to_rows() for piece in pieces] == [
            [row for row in rows
             if stable_hash(tuple(row[p] for p in positions)) % nseg == seg]
            for seg in range(nseg)
        ]
    # round-robin runs across the parts in order, and on into the next call
    policy = RandomDistribution()
    for start in (0, sum(sizes)):
        routed = partition_parts(parts, policy, (), nseg)
        for first, rows, pieces in zip(itertools.accumulate([start] + sizes), parts_rows, routed):
            assert [piece.to_rows() for piece in pieces] == [
                [row for i, row in enumerate(rows, first) if i % nseg == seg]
                for seg in range(nseg)
            ]
    # replicated: every part everywhere, not a copy per segment
    copies = partition_parts(parts, ReplicatedDistribution(), (), nseg)
    assert all(copy is part for part, row in zip(parts, copies) for copy in row)
    assert all(len(row) == nseg for row in copies)


@given(values=st.lists(st.one_of(small_int, names), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_stable_hash_deterministic_and_type_sensitive(values):
    assert stable_hash(values) == stable_hash(list(values))
    # "1" and 1 must hash differently (strings vs ints never join)
    assert stable_hash(["1"]) != stable_hash([1])


# -- clauses ----------------------------------------------------------------------


@st.composite
def identifier_tuples(draw):
    partition = draw(st.sampled_from(sorted(PARTITION_BODY_PATTERNS)))
    body = len(PARTITION_BODY_PATTERNS[partition])
    relations = tuple(draw(names) for _ in range(body + 1))
    classes = tuple(draw(names) for _ in range(2 if body == 1 else 3))
    weight = draw(
        st.floats(min_value=0.01, max_value=10, allow_nan=False, allow_infinity=False)
    )
    return partition, relations, classes, weight


@given(identifier=identifier_tuples())
@settings(max_examples=100, deadline=None)
def test_clause_identifier_roundtrip(identifier):
    partition, relations, classes, weight = identifier
    clause = clause_from_identifier(partition, relations, classes, weight)
    classified = classify_clause(clause)
    assert classified.partition == partition
    assert classified.relations == relations
    assert classified.classes == classes
    assert classified.weight == pytest.approx(weight)


# -- inference ----------------------------------------------------------------------


@st.composite
def small_factor_graphs(draw):
    n_vars = draw(st.integers(min_value=1, max_value=6))
    n_factors = draw(st.integers(min_value=1, max_value=8))
    graph = FactorGraph()
    var_ids = list(range(n_vars))
    for _ in range(n_factors):
        head = draw(st.sampled_from(var_ids))
        body_size = draw(st.integers(min_value=0, max_value=2))
        body = [draw(st.sampled_from(var_ids)) for _ in range(body_size)]
        weight = draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
        graph.add_clause(head, body, weight)
    return graph


@given(graph=small_factor_graphs())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exact_marginals_are_probabilities(graph):
    marginals = exact_marginals(graph)
    assert set(marginals) == set(graph.external_ids())
    for probability in marginals.values():
        assert 0.0 <= probability <= 1.0


@given(graph=small_factor_graphs())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gibbs_tracks_exact(graph):
    exact = exact_marginals(graph)
    approx = GibbsSampler(graph, seed=1).run_stream(2500).marginals
    for var, probability in exact.items():
        assert approx[var] == pytest.approx(probability, abs=0.12)


@given(
    weight=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_singleton_marginal_is_logistic(weight):
    graph = FactorGraph()
    graph.add_clause(0, [], weight)
    expected = 1.0 / (1.0 + math.exp(-weight))
    assert exact_marginals(graph)[0] == pytest.approx(expected)
