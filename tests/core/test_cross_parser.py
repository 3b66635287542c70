"""Regression tests: caches on shared grammar nodes must stay independent.

The single-entry memo (Section 4.4) and the ``parse-null`` cache both live in
fields *on the grammar nodes*.  Before the class-level-epoch fix, every
:class:`SingleEntryMemo` started at epoch 0, so a second parser built over
the same ``Language`` graph could read derivatives memoized by the first —
results that embed the first parser's compaction decisions and metrics
wiring.  The same pattern applied to ``null_parse_epoch``.  Parsers now
copy the grammar they are given, so the single-entry memo tests drive memo
instances directly on one shared graph, and the parser tests check that
parsers built over one caller's grammar behave fully independently and
correctly.  The per-node dict memo keeps one plain table per node and no
owner key: only the memo deriving a graph writes it, so two dict memos are
never put on one graph (``test_ownership.py`` pins that no engine writes
the caller's).
"""

import gc
import weakref

from repro.core import DerivativeParser, Metrics, Ref, count_trees, epsilon, token
from repro.core.languages import reachable_nodes
from repro.core.languages import token as make_token
from repro.core.memo import MISS, SingleEntryMemo


def shared_arith():
    """E = E + T | T ; T = T * F | F ; F = ( E ) | n"""
    e, t, f = Ref("E"), Ref("T"), Ref("F")
    e.set((e + token("+") + t) | t)
    t.set((t + token("*") + f) | f)
    f.set((token("(") + e + token(")")) | token("n"))
    return e


def ambiguous_sum():
    """E = E + E | n"""
    e = Ref("E")
    e.set((e + token("+") + e) | token("n"))
    return e


class TestSingleEntryMemoEpochs:
    def test_fresh_memo_never_reads_foreign_entries(self):
        node = make_token("a")
        first = SingleEntryMemo(Metrics())
        first.put(node, "x", make_token("1"))
        second = SingleEntryMemo(Metrics())
        # Before the fix both memos sat at epoch 0 and `second` would have
        # returned `first`'s entry here.
        assert second.get(node, "x") is MISS

    def test_epochs_are_globally_unique(self):
        seen = set()
        for _ in range(5):
            memo = SingleEntryMemo(Metrics())
            assert memo.epoch not in seen
            seen.add(memo.epoch)
            memo.clear()
            assert memo.epoch not in seen
            seen.add(memo.epoch)

    def test_two_parsers_one_grammar_independent_results(self):
        grammar = shared_arith()
        first = DerivativeParser(grammar)
        assert first.recognize(list("n+n")) is True

        second = DerivativeParser(grammar)
        # The second parser must compute its own derivatives (cache misses on
        # the shared nodes), not replay the first parser's.
        assert second.metrics.derive_cache_hits == 0
        assert second.recognize(list("n+n")) is True
        assert second.metrics.derive_uncached > 0

        # Both parsers stay correct afterwards, including rejections.
        assert first.recognize(list("n+")) is False
        assert second.recognize(list("n*n")) is True

    def test_interleaved_parsers_on_shared_grammar(self):
        grammar = shared_arith()
        first = DerivativeParser(grammar)
        second = DerivativeParser(grammar)
        # Interleave parses so each parser's memo writes land between the
        # other's reads; with polluted caches these assertions flip.
        assert first.recognize(list("n")) is True
        assert second.recognize(list("n+")) is False
        assert first.recognize(list("n+n")) is True
        assert second.recognize(list("n+n")) is True
        assert first.recognize(list("+")) is False


class TestPerNodeDictMemoOwnership:
    """Each dict-memo parser derives on its own copy of the grammar."""

    def test_two_dict_parsers_one_grammar(self):
        grammar = shared_arith()
        first = DerivativeParser(grammar, memo="dict")
        second = DerivativeParser(grammar, memo="dict")
        assert first.recognize(list("n+n")) is True
        assert second.recognize(list("n+")) is False
        first.reset()
        assert second.recognize(list("n+n")) is True
        assert first.recognize(list("n*n")) is True

    def test_second_memo_does_not_read_foreign_table(self):
        grammar = shared_arith()
        first = DerivativeParser(grammar, memo="dict")
        assert first.recognize(list("n+n*n")) is True
        assert first.memo.entry_distribution()
        # The second parser copies the caller's pristine grammar, not the
        # first's derived copy: its memo starts with no table anywhere.
        second = DerivativeParser(grammar, memo="dict")
        assert second.memo.entry_distribution() == {}
        assert all(node.memo_table is None for node in reachable_nodes(second.root))
        assert second.recognize(list("n+")) is False

    def test_clear_drops_only_owned_tables(self):
        grammar = shared_arith()
        first = DerivativeParser(grammar, memo="dict")
        second = DerivativeParser(grammar, memo="dict")
        assert first.recognize(list("n+n")) is True
        assert second.recognize(list("(n)*n")) is True
        kept = second.memo.entry_distribution()
        touched = list(second.memo._touched)
        first.reset()
        assert first.memo.entry_distribution() == {}
        assert second.memo.entry_distribution() == kept
        assert all(node.memo_table is not None for node in touched)

    def test_dead_memos_do_not_pin_entries_on_shared_nodes(self):
        # A dict-memo parser dropped without reset() must not leave its
        # tables (and thus its derived grammar) on the caller's long-lived
        # nodes: they live on the parser's own copy and die with it.
        grammar = shared_arith()
        shared = reachable_nodes(grammar)
        parser = DerivativeParser(grammar, memo="dict")
        assert parser.recognize(list("n+n*(n)")) is True

        class Result:
            pass

        result = Result()  # a stand-in derivative a weak reference can watch
        released = weakref.ref(result)
        parser.memo.put(parser.root, "sentinel", result)
        dropped = weakref.ref(parser.memo)
        del parser, result
        gc.collect()
        assert released() is None
        assert dropped() is None
        assert all(node.memo_table is None for node in shared)


class TestNullParseEpochs:
    def test_forests_independent_across_parsers(self):
        grammar = ambiguous_sum()
        first = DerivativeParser(grammar)
        forest_one = first.parse_forest(list("n+n+n"))
        assert count_trees(forest_one) == 2

        second = DerivativeParser(grammar)
        forest_two = second.parse_forest(list("n+n+n+n"))
        # With a per-instance epoch starting at the same value, `second`
        # could pick up `first`'s cached null-parse results on the shared
        # initial-grammar nodes and report the wrong forest.
        assert count_trees(forest_two) == 5
        assert count_trees(first.parse_forest(list("n+n+n"))) == 2

    def test_repeated_extractions_use_fresh_epochs(self):
        grammar = Ref("S")
        grammar.set((token("(") + grammar + token(")") + grammar) | epsilon("leaf"))
        parser = DerivativeParser(grammar)
        assert parser.parse(list("()")) is not None
        assert parser.parse(list("(())()")) is not None
        assert parser.parse([]) == "leaf"
