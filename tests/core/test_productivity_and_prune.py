"""Tests for the emptiness half of the node-state analysis and the
empty-branch pruning pass."""

from repro.core import (
    CompactionConfig,
    Compactor,
    DerivativeParser,
    Ref,
    count_trees,
    epsilon,
    token,
)
from repro.core.languages import EMPTY, LIVE, NULLABLE, Alt, Cat, Delta, Empty, graph_size
from repro.core.nullability import NullabilityAnalyzer
from repro.core.prune import live_nodes, prune_empty


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
        grammar = Ref("E")
        grammar.set((grammar + token("+") + grammar) | token("n"))
        tokens = list("n+n+n")
        with_prune = DerivativeParser(grammar, prune=True)
        without_prune = DerivativeParser(grammar, prune=False)
        assert with_prune.recognize(tokens) is without_prune.recognize(tokens) is True
        assert count_trees(DerivativeParser(grammar, prune=True).parse_forest(tokens)) == 2

    def test_prune_disabled_with_compaction_disabled(self):
        grammar = Ref("E")
        grammar.set((grammar + token("+") + grammar) | token("n"))
        tokens = list("n" + "+n" * 10)
        pruning = DerivativeParser(grammar)
        assert pruning.recognize(tokens) is True
        assert pruning.prune_passes > 0
        parser = DerivativeParser(grammar, compaction=CompactionConfig.disabled())
        assert parser.recognize(tokens) is True
        assert parser.prune_passes == 0

    def test_prune_passes_counted_on_long_inputs(self):
        grammar = Ref("L")
        grammar.set((grammar + token("a")) | token("a"))
        parser = DerivativeParser(grammar)
        assert parser.recognize(["a"] * 500) is True
        short = parser.prune_passes
        assert short > 0
        parser = DerivativeParser(grammar)
        assert parser.recognize(["a"] * 2_000) is True
        # Each derive step cuts its own dead branches, so passes find
        # nothing and the schedule backs off: four times the input adds at
        # most two passes (a schedule that never backs off runs 29 passes
        # on 500 tokens and 117 on 2,000).
        assert parser.prune_passes <= short + 2
