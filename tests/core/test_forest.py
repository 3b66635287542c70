"""Unit tests for shared parse forests with ambiguity nodes."""

import math

import pytest

from repro.core.forest import (
    FOREST_EMPTY,
    ForestAmb,
    ForestLeaf,
    ForestMap,
    ForestPair,
    ForestRef,
    count_trees,
    first_tree,
    iter_trees,
)


class TestBasicForests:
    def test_empty_forest_has_no_trees(self):
        assert list(iter_trees(FOREST_EMPTY)) == []
        assert count_trees(FOREST_EMPTY) == 0

    def test_leaf_yields_its_trees(self):
        leaf = ForestLeaf(("a", "b"))
        assert list(iter_trees(leaf)) == ["a", "b"]
        assert count_trees(leaf) == 2

    def test_pair_is_cross_product(self):
        forest = ForestPair(ForestLeaf(("a", "b")), ForestLeaf(("x", "y")))
        assert set(iter_trees(forest)) == {("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")}
        assert count_trees(forest) == 4

    def test_pair_with_empty_side_is_empty(self):
        forest = ForestPair(ForestLeaf(("a",)), FOREST_EMPTY)
        assert list(iter_trees(forest)) == []
        assert count_trees(forest) == 0

    def test_map_applies_function(self):
        forest = ForestMap(lambda t: t.upper(), ForestLeaf(("a", "b")))
        assert list(iter_trees(forest)) == ["A", "B"]

    def test_amb_unions_alternatives(self):
        forest = ForestAmb([ForestLeaf(("a",)), ForestLeaf(("b",))])
        assert set(iter_trees(forest)) == {"a", "b"}
        assert count_trees(forest) == 2

    def test_amb_deduplicates_on_enumeration(self):
        forest = ForestAmb([ForestLeaf(("a",)), ForestLeaf(("a",))])
        assert list(iter_trees(forest)) == ["a"]
        # count_trees counts structurally (2 derivations of the same tree).
        assert count_trees(forest) == 2

    def test_ref_delegates_to_target(self):
        ref = ForestRef(ForestLeaf(("a",)))
        assert list(iter_trees(ref)) == ["a"]
        assert count_trees(ref) == 1

    def test_unresolved_ref_is_empty(self):
        assert list(iter_trees(ForestRef())) == []
        assert count_trees(ForestRef()) == 0


class TestLimitsAndHelpers:
    def test_limit_stops_enumeration(self):
        forest = ForestAmb([ForestLeaf((i,)) for i in range(100)])
        assert len(list(iter_trees(forest, limit=7))) == 7
        assert list(iter_trees(forest, limit=0)) == []

    def test_first_tree_returns_one(self):
        forest = ForestAmb([ForestLeaf(("a",)), ForestLeaf(("b",))])
        assert first_tree(forest) == "a"

    def test_first_tree_raises_on_empty(self):
        with pytest.raises(ValueError):
            first_tree(FOREST_EMPTY)

    def test_shared_subforest_counts_in_both_contexts(self):
        shared = ForestLeaf(("s",))
        forest = ForestPair(shared, shared)
        assert count_trees(forest) == 1
        assert list(iter_trees(forest)) == [("s", "s")]


class TestCyclicForests:
    def make_cycle(self):
        # amb = leaf | (amb . leaf) — infinitely many trees.
        amb = ForestAmb([])
        amb.alternatives.append(ForestLeaf(("x",)))
        amb.alternatives.append(ForestPair(amb, ForestLeaf(("y",))))
        return amb

    def test_cyclic_forest_counts_as_infinite(self):
        assert count_trees(self.make_cycle()) == math.inf

    def test_cyclic_forest_enumeration_terminates(self):
        trees = list(iter_trees(self.make_cycle(), limit=10))
        assert "x" in trees
        assert len(trees) >= 1

    def test_cycle_through_ref(self):
        ref = ForestRef()
        amb = ForestAmb([ForestLeaf(("x",)), ref])
        ref.target = amb
        # The only finite trees are the non-cyclic alternatives.
        assert list(iter_trees(amb, limit=5)) == ["x"]

    def test_emptiness_of_structures(self):
        # Emptiness is ``count_trees(f) == 0``, exact at any depth.
        assert count_trees(ForestLeaf(("a",))) == 1
        assert count_trees(ForestAmb([])) == 0
        assert count_trees(ForestAmb([ForestLeaf(("a",))])) == 1
        assert count_trees(ForestAmb([ForestPair(ForestLeaf(("a",)), ForestAmb([]))])) == 0

    def test_reprs(self):
        nodes = [
            FOREST_EMPTY,
            ForestLeaf(("a",)),
            ForestPair(FOREST_EMPTY, FOREST_EMPTY),
            ForestMap(str, FOREST_EMPTY),
            ForestAmb([]),
            ForestRef(),
        ]
        for node in nodes:
            assert isinstance(repr(node), str)
