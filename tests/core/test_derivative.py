"""Unit tests for the derivative function (Figure 2, Section 2.5.2)."""

import pytest

from repro.core.compaction import CompactionConfig, Compactor
from repro.core.derivative import Deriver
from repro.core.errors import GrammarError
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
    token,
)
from repro.core.memo import PerNodeDictMemo, SingleEntryMemo
from repro.core.metrics import Metrics
from repro.core.nullability import NullabilityAnalyzer


def make_deriver(compaction=None, memo_cls=SingleEntryMemo):
    metrics = Metrics()
    return Deriver(
        memo=memo_cls(metrics),
        compactor=Compactor(compaction or CompactionConfig.full(), metrics),
        nullability=NullabilityAnalyzer(metrics),
        metrics=metrics,
    )


class TestBaseRules:
    def test_derivative_of_empty_is_empty(self):
        deriver = make_deriver()
        assert isinstance(deriver.derive(EMPTY, "a"), Empty)

    def test_derivative_of_epsilon_is_empty(self):
        deriver = make_deriver()
        assert isinstance(deriver.derive(epsilon(), "a"), Empty)

    def test_derivative_of_delta_is_empty(self):
        deriver = make_deriver()
        assert isinstance(deriver.derive(Delta(epsilon()), "a"), Empty)

    def test_derivative_of_matching_token_is_epsilon_with_value(self):
        deriver = make_deriver()
        result = deriver.derive(token("a"), "a")
        assert isinstance(result, Epsilon)
        assert result.trees == ("a",)

    def test_derivative_of_token_keeps_semantic_value(self):
        deriver = make_deriver()
        result = deriver.derive(token("NAME"), ("NAME", "foo"))
        assert isinstance(result, Epsilon)
        assert result.trees == ("foo",)

    def test_derivative_of_non_matching_token_is_empty(self):
        deriver = make_deriver()
        assert isinstance(deriver.derive(token("a"), "b"), Empty)


class TestCompositeRules:
    def test_derivative_of_alt_derives_both_children(self):
        deriver = make_deriver()
        result = deriver.derive(Alt(token("a"), token("b")), "a")
        # Dc(a ∪ b) = ε ∪ ∅, which compaction reduces to ε.
        assert isinstance(result, Epsilon)

    def test_derivative_of_alt_without_compaction(self):
        deriver = make_deriver(CompactionConfig.disabled())
        result = deriver.derive(Alt(token("a"), token("b")), "a")
        assert isinstance(result, Alt)
        assert isinstance(result.left, Epsilon)
        assert isinstance(result.right, Empty)

    def test_derivative_of_cat_with_non_nullable_left(self):
        deriver = make_deriver(CompactionConfig.disabled())
        result = deriver.derive(Cat(token("a"), token("b")), "a")
        assert isinstance(result, Cat)
        assert isinstance(result.left, Epsilon)
        assert isinstance(result.right, type(token("b")))

    def test_derivative_of_cat_with_nullable_left_builds_union(self):
        deriver = make_deriver(CompactionConfig.disabled())
        grammar = Cat(Alt(epsilon(), token("a")), token("b"))
        result = deriver.derive(grammar, "b")
        # Dc(L1 ◦ L2) = (Dc(L1) ◦ L2) ∪ (δ(L1) ◦ Dc(L2))
        assert isinstance(result, Alt)
        assert isinstance(result.left, Cat)
        assert isinstance(result.right, Cat)
        assert isinstance(result.right.left, Delta)

    def test_derivative_of_reduce_wraps_child_derivative(self):
        fn = lambda t: ("wrapped", t)
        deriver = make_deriver(CompactionConfig.disabled())
        result = deriver.derive(Reduce(token("a"), fn), "a")
        assert isinstance(result, Reduce)
        assert result.fn is fn

    def test_derivative_of_resolved_ref_is_targets_derivative(self):
        deriver = make_deriver()
        ref = Ref("n", token("a"))
        result = deriver.derive(ref, "a")
        assert isinstance(result, Epsilon)

    def test_derivative_of_unresolved_ref_raises(self):
        deriver = make_deriver()
        with pytest.raises(GrammarError):
            deriver.derive(Ref("n"), "a")

    def test_derivative_of_incomplete_alt_raises(self):
        deriver = make_deriver()
        with pytest.raises(GrammarError):
            deriver.derive(Alt(token("a"), None), "a")


class TestCyclesAndMemoization:
    def make_left_recursive(self):
        # L = (L ◦ c) ∪ c with c matching any single 'c' token.
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("c")), token("c")))
        return ref

    def test_cyclic_grammar_derivative_terminates(self):
        deriver = make_deriver()
        result = deriver.derive(self.make_left_recursive(), "c")
        assert result is not None
        assert not isinstance(result, Empty)

    def test_cyclic_derivative_is_itself_cyclic(self):
        from repro.core.languages import reachable_nodes

        deriver = make_deriver(CompactionConfig.disabled())
        grammar = self.make_left_recursive()
        result = deriver.derive(grammar, "c")
        # The derivative graph contains a node that (transitively) points back
        # to itself, mirroring Figure 4b of the paper.
        nodes = reachable_nodes(result)
        assert any(
            child is node
            for node in nodes
            for descendant in nodes
            for child in descendant.children()
            if child is node and descendant is not node
        ) or len(nodes) > 1

    def test_repeated_derivative_uses_memo(self):
        deriver = make_deriver()
        grammar = self.make_left_recursive()
        first = deriver.derive(grammar, "c")
        calls_before = deriver.metrics.derive_uncached
        second = deriver.derive(grammar, "c")
        assert second is first
        assert deriver.metrics.derive_uncached == calls_before

    def test_memo_shares_result_across_occurrences(self):
        deriver = make_deriver()
        shared = token("a")
        grammar = Alt(Cat(shared, token("b")), Cat(shared, token("c")))
        deriver.derive(grammar, "a")
        # `shared` appears twice, but its derivative is computed only once.
        assert deriver.metrics.derive_cache_hits >= 1

    def test_single_entry_memo_evicts_on_second_token(self):
        deriver = make_deriver()
        grammar = self.make_left_recursive()
        deriver.derive(grammar, "c")
        deriver.derive(grammar, "d")
        assert deriver.metrics.memo_evictions >= 1

    @pytest.mark.parametrize("memo_cls", [SingleEntryMemo, PerNodeDictMemo])
    def test_all_memo_strategies_agree_on_recognition(self, memo_cls):
        from repro.core.parse import DerivativeParser

        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("c")), token("c")))
        parser = DerivativeParser(ref, memo=memo_cls(Metrics()))
        assert parser.recognize(["c", "c", "c"]) is True
        parser2 = DerivativeParser(ref, memo=memo_cls(Metrics()))
        assert parser2.recognize([]) is False


class TestPlaceholderBehaviour:
    def test_non_cyclic_results_are_compacted(self):
        deriver = make_deriver()
        grammar = Alt(token("a"), token("b"))
        result = deriver.derive(grammar, "z")
        # Both branches die, so compaction collapses the result to ∅.
        assert isinstance(result, Empty)

    def test_acyclic_derive_builds_no_placeholder(self):
        deriver = make_deriver()
        deriver.derive(Alt(token("a"), token("b")), "a")
        assert deriver.metrics.placeholders_created == 0
        # Only ε_a is built: the ∪ collapses onto it and ∅ is shared.
        assert deriver.metrics.nodes_created == 1

    def test_cyclic_placeholder_children_filled(self):
        deriver = make_deriver(CompactionConfig.disabled())
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("c")), token("c")))
        result = deriver.derive(ref, "c")
        from repro.core.languages import reachable_nodes

        for node in reachable_nodes(result):
            assert not node.under_construction
            if isinstance(node, (Alt, Cat)):
                assert node.left is not None and node.right is not None


def _alt_cycle():
    # L = (L ◦ c) ∪ c: the cycle re-enters at the ∪.
    alt = Alt(None, token("c"))
    alt.left = Cat(alt, token("c"))
    return alt, Alt, "cc", {"L": [["L", "c"], ["c"]]}


def _cat_cycle():
    # L = (L ∪ c) ◦ c: the cycle re-enters at a ◦ whose left is not nullable.
    cat = Cat(None, token("c"))
    cat.left = Alt(cat, token("c"))
    return cat, Cat, "ccc", {"L": [["L", "c"], ["c", "c"]]}


def _nullable_cat_cycle():
    # L = (ε ∪ a) ◦ (L ∪ b): the cycle re-enters at a ◦ with a nullable left.
    cat = Cat(Alt(epsilon(), token("a")), None)
    cat.right = Alt(cat, token("b"))
    return cat, Alt, "aab", {"L": [["A", "L"], ["A", "b"]], "A": [[], ["a"]]}


def _reduce_cycle():
    # L = ((L ◦ a) ∪ c) ↪ f: the cycle re-enters at the ↪.
    reduce = Reduce(None, lambda tree: ("r", tree))
    reduce.lang = Alt(Cat(reduce, token("a")), token("c"))
    return reduce, Reduce, "caa", {"L": [["L", "a"], ["c"]]}


def _ref_cycle():
    # <L> = (<L> ◦ c) ∪ c: the cycle re-enters at the reference.
    ref = Ref("L")
    ref.set(Alt(Cat(ref, token("c")), token("c")))
    return ref, Ref, "ccc", {"L": [["L", "c"], ["c"]]}


class TestCyclePlaceholders:
    """A placeholder is built only where a cycle finds a derive in progress."""

    INPUTS = ["", "c", "cc", "ccc", "a", "b", "ab", "aab", "ca", "caa", "cac", "bb"]

    @staticmethod
    def assert_complete(root):
        from repro.core.languages import reachable_nodes

        for node in reachable_nodes(root):
            assert not node.under_construction, node
            if isinstance(node, (Alt, Cat)):
                assert node.left is not None and node.right is not None, node
            elif isinstance(node, (Reduce, Delta)):
                assert node.lang is not None, node
            elif isinstance(node, Ref):
                assert node.target is not None, node

    @pytest.mark.parametrize(
        "build",
        [_alt_cycle, _cat_cycle, _nullable_cat_cycle, _reduce_cycle, _ref_cycle],
        ids=["alt", "cat", "nullable-cat", "reduce", "ref"],
    )
    def test_cycle_builds_placeholder_of_frame_kind(self, build):
        from repro.cfg.grammar import grammar_from_rules
        from repro.earley import EarleyParser

        root, placeholder_kind, accepted, rules = build()
        first = make_deriver(CompactionConfig.disabled())
        result = first.derive(root, accepted[0])
        # The root's own frame was looked up, so the result is its placeholder.
        assert first.metrics.placeholders_created >= 1
        assert type(result) is placeholder_kind
        self.assert_complete(result)

        earley = EarleyParser(grammar_from_rules("L", rules))
        assert earley.recognize(list(accepted))
        for word in self.INPUTS:
            deriver = make_deriver(CompactionConfig.disabled())
            language = root
            for position, symbol in enumerate(word):
                language = deriver.derive(language, symbol, position)
                self.assert_complete(language)
            assert deriver.nullability.nullable(language) == earley.recognize(list(word)), word


class TestNullTreeFold:
    """``δ(L) ⇒ ε_t`` when L's null parses are exactly one finite tree."""

    @staticmethod
    def derive_null_branch(left, compaction=None):
        # Dc_b((left) ◦ b) keeps only the null branch δ(left) ◦ ε_b.
        deriver = make_deriver(compaction)
        return deriver, deriver.derive(Cat(left, token("b")), "b")

    @staticmethod
    def has_delta(node):
        from repro.core.languages import reachable_nodes

        return any(isinstance(member, Delta) for member in reachable_nodes(node))

    def test_full_folds_a_single_tree_delta(self):
        # δ(ε_x ∪ a) ⇒ ε_x, then ε_x ◦ ε_b ⇒ ε_b ↪ pair-with-x ⇒ ε_(x, b)
        _deriver, result = self.derive_null_branch(Alt(epsilon("x"), token("a")))
        assert isinstance(result, Epsilon)
        assert result.trees == (("x", "b"),)

    def test_fold_applies_reductions_and_pairs(self):
        left = Reduce(Cat(epsilon("x"), Alt(token("a"), epsilon("y"))), lambda t: ("r", t))
        _deriver, result = self.derive_null_branch(left)
        assert isinstance(result, Epsilon)
        assert result.trees == ((("r", ("x", "y")), "b"),)

    def test_ambiguous_null_parses_keep_delta(self):
        _deriver, result = self.derive_null_branch(Alt(epsilon("x"), epsilon("y")))
        assert self.has_delta(result)

    def test_epsilon_with_several_trees_keeps_delta(self):
        _deriver, result = self.derive_null_branch(Alt(Epsilon(("x", "y")), token("a")))
        assert self.has_delta(result)

    def test_cyclic_nullable_region_keeps_delta(self):
        ref = Ref("N")
        ref.set(Alt(Reduce(ref, lambda t: ("n", t)), epsilon("x")))
        deriver, result = self.derive_null_branch(ref)
        assert self.has_delta(result)
        assert deriver.null_trees(ref) is None

    def test_null_trees_answers(self):
        deriver = make_deriver()
        assert deriver.null_trees(Epsilon(())) == ()
        assert deriver.null_trees(epsilon("x")) == ("x",)
        assert deriver.null_trees(Cat(epsilon("x"), Epsilon(()))) == ()
        assert deriver.null_trees(Alt(epsilon("x"), epsilon("y"))) is None
        shared = Alt(token("a"), epsilon("s"))
        assert deriver.null_trees(Cat(shared, shared)) == (("s", "s"),)

    @pytest.mark.parametrize(
        "config", [CompactionConfig.disabled(), CompactionConfig.original_2011()]
    )
    def test_disabled_and_original_2011_never_fold(self, config):
        deriver, result = self.derive_null_branch(Alt(epsilon("x"), token("a")), config)
        assert self.has_delta(result)
        assert deriver._null_trees == {}

    def test_reset_clears_the_single_tree_cache(self):
        from repro.core.parse import DerivativeParser

        grammar = Cat(Alt(epsilon("x"), token("a")), Cat(token("b"), token("c")))
        parser = DerivativeParser(grammar)
        assert parser.parse(["b", "c"]) == ("x", ("b", "c"))
        assert parser.deriver._null_trees
        parser.reset()
        assert parser.deriver._null_trees == {}
        assert parser.parse(["a", "b", "c"]) == ("a", ("b", "c"))
