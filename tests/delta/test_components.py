"""The incremental component index and componentwise sampling."""

import random

from repro.infer import (
    ComponentIndex,
    build_component_graph,
    component_seed,
    componentwise_marginals,
)
from repro.infer.components import component_sampler


class TestComponentIndex:
    def test_variables_start_as_singletons(self):
        index = ComponentIndex()
        index.add_variable(3)
        index.add_variable(7)
        assert len(index) == 2
        assert index.members(3) == [3]
        assert index.factors(7) == []
        assert index.anchor(7) == 7

    def test_add_variable_is_idempotent(self):
        index = ComponentIndex()
        index.add_variable(1)
        index.add_variable(1)
        assert len(index) == 1 and index.members(1) == [1]

    def test_factor_unions_participants(self):
        index = ComponentIndex()
        touched = index.add_factors([(2, 1, None, 1.5)])
        assert len(touched) == 1
        root = touched.pop()
        assert index.members(root) == [1, 2]
        assert index.factors(root) == [(2, 1, None, 1.5)]
        assert index.anchor(root) == 1

    def test_unknown_participants_register_on_the_fly(self):
        index = ComponentIndex()
        index.add_factors([(9, None, None, 0.5)])
        assert 9 in index and index.members(9) == [9]

    def test_merge_carries_both_payloads(self):
        index = ComponentIndex()
        index.add_factors([(1, 0, None, 1.0), (3, 2, None, 1.0)])
        assert len(index) == 2
        # a bridging factor merges the two islands
        touched = index.add_factors([(2, 1, None, 2.0)])
        assert len(touched) == 1
        root = touched.pop()
        assert index.members(root) == [0, 1, 2, 3]
        assert sorted(index.factors(root)) == [
            (1, 0, None, 1.0),
            (2, 1, None, 2.0),
            (3, 2, None, 1.0),
        ]
        assert index.anchor(root) == 0
        assert len(index) == 1

    def test_touched_roots_are_canonical_after_all_unions(self):
        index = ComponentIndex()
        # two factors that end up in the SAME component: the returned
        # set must contain one final root, not two intermediate ones
        touched = index.add_factors([(1, 0, None, 1.0), (2, 1, None, 1.0)])
        assert len(touched) == 1
        root = touched.pop()
        assert index.members(root) == [0, 1, 2]

    def test_roots_ordered_by_anchor(self):
        index = ComponentIndex()
        index.add_factors([(5, 4, None, 1.0), (1, 0, None, 1.0)])
        roots = index.roots()
        assert [index.anchor(r) for r in roots] == [0, 4]

    def test_from_factor_rows_registers_every_mentioned_id(self):
        # 0 and 3 occur only in bodies, 7 only in its unit factor
        index = ComponentIndex.from_factor_rows(
            [(1, 0, None, 1.0), (2, 1, 3, 0.5), (7, None, None, 0.9)]
        )
        assert all(var in index for var in (0, 1, 2, 3, 7))
        assert len(index) == 2
        assert index.members(3) == [0, 1, 2, 3]
        assert index.members(7) == [7]
        assert index.factors(7) == [(7, None, None, 0.9)]


class TestDeterminism:
    def test_component_seed_decorrelates_neighbours(self):
        seeds = {component_seed(0, anchor) for anchor in range(100)}
        assert len(seeds) == 100
        assert component_seed(0, 5) != component_seed(1, 5)

    def test_graph_construction_is_order_invariant(self):
        rows = [(1, 0, None, 1.2), (2, 1, None, 0.7), (2, 0, None, 0.4)]
        one = build_component_graph([0, 1, 2], rows)
        other = build_component_graph([2, 1, 0], list(reversed(rows)))
        assert one.external_ids() == other.external_ids()

    def test_sample_component_ignores_row_order(self):
        rows = [(1, 0, None, 1.2), (2, 1, None, 0.7), (0, None, None, 0.9)]
        shuffled = list(rows)
        random.Random(7).shuffle(shuffled)
        assert component_sampler([0, 1, 2], rows, seed=3).run_stream(
            50
        ) == component_sampler([2, 0, 1], shuffled, seed=3).run_stream(50)

    def test_componentwise_marginals_ignore_component_order(self):
        rows = [
            (0, None, None, 0.8),
            (1, 0, None, 1.5),
            (4, None, None, 0.6),
            (5, 4, None, 1.1),
        ]
        shuffled = list(rows)
        random.Random(11).shuffle(shuffled)
        assert componentwise_marginals(rows, 60, seed=2) == componentwise_marginals(
            shuffled, 60, seed=2
        )

    def test_component_marginals_independent_of_other_components(self):
        """The key splice property: a component's marginals don't change
        when an unrelated component appears elsewhere in the graph."""
        island = [(0, None, None, 0.8), (1, 0, None, 1.5)]
        other = [(4, None, None, 0.6)]
        alone = componentwise_marginals(island, 60, seed=2)
        together = componentwise_marginals(island + other, 60, seed=2)
        assert {k: v for k, v in together.items() if k in (0, 1)} == alone
