"""Unit tests for the compaction smart constructors (Section 4.3)."""

import pytest

from repro.core.compaction import CompactionConfig, Compactor, optimize_initial_grammar
from repro.core.languages import (
    EMPTY,
    Alt,
    Cat,
    Delta,
    Empty,
    Epsilon,
    Reduce,
    Ref,
    epsilon,
    graph_size,
    token,
)
from repro.core.metrics import Metrics
from repro.core.reductions import IDENTITY


@pytest.fixture
def compactor():
    return Compactor(CompactionConfig.full(), Metrics())


def wrap(tag):
    """A tiny named reduction used to observe where functions end up."""

    def fn(tree):
        return (tag, tree)

    fn.__name__ = "wrap_{}".format(tag)
    return fn


class TestAltRules:
    def test_empty_union_p_reduces_to_p(self, compactor):
        p = token("a")
        assert compactor.make_alt(EMPTY, p) is p

    def test_p_union_empty_reduces_to_p(self, compactor):
        p = token("a")
        assert compactor.make_alt(p, EMPTY) is p

    def test_epsilon_union_epsilon_merges_trees(self, compactor):
        result = compactor.make_alt(epsilon("a"), epsilon("b"))
        assert isinstance(result, Epsilon)
        assert set(result.trees) == {"a", "b"}

    def test_epsilon_union_dedups_equal_trees(self, compactor):
        result = compactor.make_alt(epsilon("a"), epsilon("a"))
        assert isinstance(result, Epsilon)
        assert result.trees == ("a",)

    def test_ordinary_union_is_preserved(self, compactor):
        result = compactor.make_alt(token("a"), token("b"))
        assert isinstance(result, Alt)

    def test_epsilon_merge_disabled_without_new_rules(self):
        compactor = Compactor(CompactionConfig.original_2011(), Metrics())
        result = compactor.make_alt(epsilon("a"), epsilon("b"))
        assert isinstance(result, Alt)


class TestCatRules:
    def test_empty_cat_p_reduces_to_empty(self, compactor):
        assert isinstance(compactor.make_cat(EMPTY, token("a")), Empty)

    def test_epsilon_cat_p_becomes_reduction(self, compactor):
        p = token("a")
        result = compactor.make_cat(epsilon("s"), p)
        assert isinstance(result, Reduce)
        assert result.lang is p
        assert result.fn("u") == ("s", "u")

    def test_right_empty_not_reduced_during_parse(self, compactor):
        # Section 4.3.1: right-child rules only apply to the initial grammar.
        result = compactor.make_cat(token("a"), EMPTY)
        assert isinstance(result, Cat)

    def test_reduction_floats_out_of_left_child(self, compactor):
        inner = Reduce(token("a"), wrap("f"))
        result = compactor.make_cat(inner, token("b"))
        assert isinstance(result, Reduce)
        assert isinstance(result.lang, Cat)
        assert result.fn(("ta", "tb")) == (("f", "ta"), "tb")

    def test_left_associated_cats_are_reassociated(self, compactor):
        a, b, c = token("a"), token("b"), token("c")
        result = compactor.make_cat(Cat(a, b), c)
        # (a ◦ b) ◦ c ⇒ (a ◦ (b ◦ c)) ↪→ reassoc
        assert isinstance(result, Reduce)
        assert isinstance(result.lang, Cat)
        assert result.lang.left is a
        assert isinstance(result.lang.right, Cat)
        assert result.fn(("ta", ("tb", "tc"))) == (("ta", "tb"), "tc")

    def test_under_construction_left_child_punts(self, compactor):
        placeholder = Reduce(token("a"), wrap("f"))
        placeholder.under_construction = True
        result = compactor.make_cat(placeholder, token("b"))
        assert isinstance(result, Cat)

    def test_ordinary_cat_is_preserved(self, compactor):
        result = compactor.make_cat(token("a"), token("b"))
        assert isinstance(result, Cat)


class TestReduceRules:
    def test_empty_reduce_becomes_empty(self, compactor):
        assert isinstance(compactor.make_reduce(EMPTY, wrap("f")), Empty)

    def test_epsilon_reduce_applies_function(self, compactor):
        result = compactor.make_reduce(epsilon("s"), wrap("f"))
        assert isinstance(result, Epsilon)
        assert result.trees == (("f", "s"),)

    def test_nested_reductions_compose(self, compactor):
        inner = Reduce(token("a"), wrap("inner"))
        result = compactor.make_reduce(inner, wrap("outer"))
        assert isinstance(result, Reduce)
        assert result.lang is inner.lang
        assert result.fn("t") == ("outer", ("inner", "t"))

    def test_identity_reduction_is_elided(self, compactor):
        p = token("a")
        assert compactor.make_reduce(p, IDENTITY) is p

    def test_empty_reduce_kept_without_new_rules(self):
        compactor = Compactor(CompactionConfig.original_2011(), Metrics())
        result = compactor.make_reduce(EMPTY, wrap("f"))
        assert isinstance(result, Reduce)


class TestDeltaRules:
    def test_delta_of_epsilon_is_that_epsilon(self, compactor):
        eps = epsilon("s")
        assert compactor.make_delta(eps) is eps

    def test_delta_of_delta_collapses(self, compactor):
        inner = Delta(token("a"))
        assert compactor.make_delta(inner) is inner

    def test_delta_of_empty_is_empty(self, compactor):
        assert isinstance(compactor.make_delta(EMPTY), Empty)

    def test_delta_of_other_nodes_wraps(self, compactor):
        result = compactor.make_delta(token("a"))
        assert isinstance(result, Delta)


class TestDisabledCompaction:
    def test_disabled_config_builds_plain_nodes(self):
        compactor = Compactor(CompactionConfig.disabled(), Metrics())
        assert isinstance(compactor.make_alt(EMPTY, token("a")), Alt)
        assert isinstance(compactor.make_cat(EMPTY, token("a")), Cat)
        assert isinstance(compactor.make_reduce(EMPTY, wrap("f")), Reduce)

    def test_metrics_count_rewrites(self):
        metrics = Metrics()
        compactor = Compactor(CompactionConfig.full(), metrics)
        compactor.make_alt(EMPTY, token("a"))
        assert metrics.compaction_rewrites == 1

    def test_metrics_count_nodes(self):
        metrics = Metrics()
        compactor = Compactor(CompactionConfig.full(), metrics)
        compactor.make_alt(token("a"), token("b"))
        assert metrics.nodes_created == 1


class TestInitialGrammarOptimization:
    def test_right_epsilon_rewritten(self):
        p = token("a")
        root = Cat(p, epsilon("s"))
        optimized = optimize_initial_grammar(root)
        assert isinstance(optimized, Reduce)
        assert optimized.lang is p
        assert optimized.fn("u") == ("u", "s")

    def test_right_empty_rewritten(self):
        root = Cat(token("a"), EMPTY)
        optimized = optimize_initial_grammar(root)
        assert isinstance(optimized, Empty)

    def test_right_reduction_floats(self):
        root = Cat(token("a"), Reduce(token("b"), wrap("f")))
        optimized = optimize_initial_grammar(root)
        assert isinstance(optimized, Reduce)
        assert optimized.fn(("ta", "tb")) == ("ta", ("f", "tb"))

    def test_nested_children_rewritten_in_place(self):
        inner = Alt(EMPTY, token("a"))
        root = Alt(inner, token("b"))
        optimized = optimize_initial_grammar(root)
        # The ∅ alternative of the inner node is removed.
        assert isinstance(optimized, Alt)
        assert isinstance(optimized.left, type(token("a"))) or isinstance(
            optimized.left, Alt
        )
        assert graph_size(optimized) <= graph_size(root)

    def test_cyclic_grammar_survives_optimization(self):
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("x")), Alt(EMPTY, epsilon())))
        optimized = optimize_initial_grammar(ref)
        # The grammar still has its recursive structure and the useless ∅
        # alternative is gone.
        assert graph_size(optimized) >= 3

    def test_left_associated_chain_is_canonicalized(self):
        a, b, c, d = (token(ch) for ch in "abcd")
        root = Cat(Cat(Cat(a, b), c), d)
        optimized = optimize_initial_grammar(root)
        # The result is reductions above a right-associated chain of cats,
        # so the only Cat whose left child is another Cat is gone.
        def has_left_nested_cat(node, seen=None):
            from repro.core.languages import reachable_nodes

            return any(
                isinstance(n, Cat) and isinstance(n.left, Cat)
                for n in reachable_nodes(node)
            )

        assert not has_left_nested_cat(optimized)

    def test_disabled_config_leaves_grammar_alone(self):
        root = Cat(token("a"), EMPTY)
        compactor = Compactor(CompactionConfig.disabled(), Metrics())
        assert optimize_initial_grammar(root, compactor) is root


class TestNullTreeFoldSwitch:
    """``δ(L) ⇒ ε_t`` rides ``new_rules``: on in full(), off in the baselines."""

    def test_fold_follows_new_rules(self):
        assert CompactionConfig.full().new_rules
        assert not CompactionConfig.disabled().new_rules
        assert not CompactionConfig.original_2011().new_rules

    def test_the_fold_adds_no_switch(self):
        from dataclasses import fields

        assert [field.name for field in fields(CompactionConfig)] == ["enabled", "new_rules"]

    @pytest.mark.parametrize(
        "cell_id, generator, sizes",
        [
            ("catalan", "catalan_tokens", (1, 2, 5, 9, 14)),
            ("binary-sum", "ambiguous_sum_tokens", (1, 3, 6, 10)),
            ("dangling-else", "dangling_else_tokens", (1, 2, 7, 20)),
        ],
    )
    def test_counts_match_closed_forms(self, cell_id, generator, sizes):
        from repro import workloads
        from repro.bench.registry import CELLS_BY_ID
        from repro.core import DerivativeParser
        from repro.core.forest import count_trees

        spec = CELLS_BY_ID[cell_id].grammar
        for size in sizes:
            tokens = getattr(workloads, generator)(size)
            forest = DerivativeParser(spec.factory()).parse_forest(tokens)
            assert count_trees(forest) == spec.forest_count(tokens)
