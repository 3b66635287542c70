"""Tests for the emptiness half of the node-state analysis and the cut of
a grammar's own dead branches."""

from repro.compile.automaton import GrammarTable
from repro.core import (
    CompactionConfig,
    Compactor,
    DerivativeParser,
    Ref,
    count_trees,
    epsilon,
    reachable_nodes,
    token,
)
from repro.core.languages import EMPTY, LIVE, NULLABLE, Alt, Cat, Delta, Empty, graph_size
from repro.core.nullability import NullabilityAnalyzer
from repro.core.prune import live_nodes, prune_empty


def unproductive_branch_grammar():
    """``S = a S b | a b | D`` where ``D = x D`` generates nothing."""
    dead = Ref("D")
    dead.set(token("x") + dead)
    start = Ref("S")
    start.set((token("a") + start + token("b")) | (token("a") + token("b")) | dead)
    return start


def uncut_dead_children(root):
    """``(parent, child)`` for every reachable child that generates no word
    yet is not the ``∅`` node (decided by a fresh analyzer)."""
    analyzer = NullabilityAnalyzer()
    return [
        (node, child)
        for node in reachable_nodes(root)
        if not isinstance(node, Delta)
        for child in node.children()
        if not isinstance(child, Empty) and not analyzer.productive(child)
    ]


class TestProductivity:
    def test_base_cases(self):
        analyzer = NullabilityAnalyzer()
        assert analyzer.productive(epsilon()) is True
        assert analyzer.productive(token("a")) is True
        assert analyzer.productive(EMPTY) is False

    def test_composites(self):
        analyzer = NullabilityAnalyzer()
        assert analyzer.productive(Alt(EMPTY, token("a"))) is True
        assert analyzer.productive(Alt(EMPTY, EMPTY)) is False
        assert analyzer.productive(Cat(token("a"), EMPTY)) is False
        assert analyzer.productive(Cat(token("a"), token("b"))) is True

    def test_dead_cyclic_grammar_is_empty(self):
        # L = L 'a'  — no base case, generates nothing.
        ref = Ref("L")
        ref.set(Cat(ref, token("a")))
        assert NullabilityAnalyzer().productive(ref) is False

    def test_live_cyclic_grammar_is_productive(self):
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), token("a")))
        assert NullabilityAnalyzer().productive(ref) is True

    def test_delta_follows_nullability(self):
        analyzer = NullabilityAnalyzer()
        assert analyzer.productive(Delta(epsilon())) is True
        assert analyzer.productive(Delta(token("a"))) is False

    def test_results_are_cached(self):
        analyzer = NullabilityAnalyzer()
        node = Alt(token("a"), EMPTY)
        assert node.state is None
        assert analyzer.productive(node) is True
        assert node.state == LIVE
        solves = analyzer.metrics.fixpoint_solves
        assert analyzer.productive(node) is True
        assert analyzer.metrics.fixpoint_solves == solves

    def test_results_are_shared_across_analyzers(self):
        # The final value lives on the node, so a second analyzer reuses it.
        ref = Ref("L")
        ref.set(Cat(ref, token("a")))
        assert NullabilityAnalyzer().productive(ref) is False
        fresh = NullabilityAnalyzer()
        assert fresh.productive(ref) is False
        assert fresh.metrics.fixpoint_node_evaluations == 0


class TestPruneEmpty:
    def test_dead_child_replaced_with_empty(self):
        dead = Ref("dead")
        dead.set(Cat(dead, token("a")))
        root = Alt(dead, token("b"))
        new_root, live = prune_empty(root)
        assert new_root is root
        assert isinstance(root.left, Empty)
        assert live <= 3

    def test_settled_root_does_not_hide_dead_cycles(self):
        # D = x ◦ D generates nothing.  The smart constructor settles the
        # root ε ∪ D as productive before any solve, so a pass that solved
        # from the root alone would never look below it.
        compactor = Compactor()
        dead = Ref("D")
        dead.set(Cat(token("x"), dead))
        root = compactor.make_alt(compactor.make_epsilon(((),)), dead)
        assert root.state == NULLABLE
        assert dead.state is None
        new_root, _live = prune_empty(root)
        assert new_root is root
        assert root.right is EMPTY

    def test_fully_dead_grammar_prunes_to_empty(self):
        dead = Ref("dead")
        dead.set(Cat(dead, token("a")))
        new_root, _live = prune_empty(dead)
        assert isinstance(new_root, Empty)

    def test_live_grammar_untouched(self):
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), token("a")))
        size_before = graph_size(ref)
        new_root, _live = prune_empty(ref)
        assert new_root is ref
        assert graph_size(ref) == size_before

    def test_live_nodes_skips_delta_history(self):
        history = Cat(token("x"), token("y"))
        root = Cat(Delta(history), token("z"))
        nodes = live_nodes(root)
        assert history not in nodes
        assert any(isinstance(node, Delta) for node in nodes)

    def test_pruning_does_not_change_the_language(self):
        def grammar():
            dead = Ref("D")
            dead.set(dead + token("x"))
            expr = Ref("E")
            expr.set((expr + token("+") + expr) | token("n") | dead)
            return expr

        cut = DerivativeParser(grammar())
        uncut = DerivativeParser(grammar(), compaction=False)
        assert not uncut_dead_children(cut.root)
        assert uncut_dead_children(uncut.root)
        for text in ("n+n+n", "n+", "x", "n+x", ""):
            assert cut.recognize(list(text)) is uncut.recognize(list(text)), text
        tokens = list("n+n+n")
        assert count_trees(cut.parse_forest(tokens)) == 2
        assert count_trees(uncut.parse_forest(tokens)) == 2

    def test_prune_disabled_with_compaction_disabled(self):
        # The construction cut rides compaction: with it off, the grammar's
        # dead branch stays in place, and the parse still succeeds.
        parser = DerivativeParser(
            unproductive_branch_grammar(), compaction=CompactionConfig.disabled()
        )
        assert uncut_dead_children(parser.root)
        assert parser.recognize(list("aaabbb")) is True
        assert parser.recognize(list("aaxbb")) is False


class TestConstructionCut:
    """No derive step builds the grammar, so each engine cuts the grammar's
    own dead branches once, when it is built."""

    def test_interpreted_parser_cuts_the_grammar_dead_branches(self):
        parser = DerivativeParser(unproductive_branch_grammar())
        # The cut settled every live grammar node on the way.
        assert all(node.state is not None for node in live_nodes(parser.root))
        assert uncut_dead_children(parser.root) == []
        assert parser.recognize(list("aabb")) is True

    def test_table_cuts_the_grammar_dead_branches(self):
        table = GrammarTable(unproductive_branch_grammar())
        assert uncut_dead_children(table.root) == []
        state = table.start
        for tok in "aabb":
            state = table.step_slow(state, tok)
        assert state.accepting

