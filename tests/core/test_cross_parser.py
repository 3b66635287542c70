"""Regression tests: caches on shared grammar nodes must stay independent.

The single-entry memo (Section 4.4) and the ``parse-null`` cache both live in
fields *on the grammar nodes*.  Before the class-level-epoch fix, every
:class:`SingleEntryMemo` started at epoch 0, so a second parser built over
the same ``Language`` graph could read derivatives memoized by the first —
results that embed the first parser's compaction decisions and metrics
wiring.  The same pattern applied to ``null_parse_epoch`` and to the
per-node dict memo's untagged ``memo_table``.  Parsers now copy the
grammar they are given, so the memo tests drive memo instances directly
on one shared graph, and the parser tests check that parsers built over
one caller's grammar behave fully independently and correctly.
"""

from repro.core import DerivativeParser, Metrics, Ref, count_trees, epsilon, token
from repro.core.languages import token as make_token
from repro.core.memo import MISS, PerNodeDictMemo, SingleEntryMemo


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
    def test_second_memo_does_not_read_foreign_table(self):
        node = make_token("a")
        first = PerNodeDictMemo(Metrics())
        first.put(node, "x", make_token("1"))
        second = PerNodeDictMemo(Metrics())
        assert second.get(node, "x") is MISS

    def test_clearing_one_memo_leaves_the_other_consistent(self):
        node = make_token("a")
        first = PerNodeDictMemo(Metrics())
        second = PerNodeDictMemo(Metrics())
        first.put(node, "x", make_token("1"))
        second.put(node, "x", make_token("2"))
        first.clear()
        # Each memo owns its own table on the node: `second`'s entry
        # survives `first.clear()` and `first` serves nothing stale.
        result = second.get(node, "x")
        assert result is not MISS
        assert first.get(node, "x") is MISS

    def test_interleaved_puts_do_not_evict_or_leak(self):
        # Regression: the first owner-tagging design stored one (owner, table)
        # pair per node, so alternating puts from two memos evicted each
        # other's whole table and appended the node to _touched every swap.
        node = make_token("a")
        first = PerNodeDictMemo(Metrics())
        second = PerNodeDictMemo(Metrics())
        one, two = make_token("1"), make_token("2")
        for _ in range(100):
            first.put(node, "x", one)
            second.put(node, "x", two)
        assert first.get(node, "x") is one
        assert second.get(node, "x") is two
        assert len(first._touched) == 1
        assert len(second._touched) == 1

    def test_clear_drops_only_owned_tables(self):
        mine, shared = make_token("a"), make_token("b")
        first = PerNodeDictMemo(Metrics())
        second = PerNodeDictMemo(Metrics())
        first.put(mine, "x", make_token("1"))
        first.put(shared, "x", make_token("2"))
        second.put(shared, "x", make_token("3"))
        first.clear()
        assert shared.memo_table is not None  # second's table untouched
        assert mine.memo_table is None
        assert second.get(shared, "x") is not MISS

    def test_dead_memos_do_not_pin_entries_on_shared_nodes(self):
        # Regression: a memo dropped without clear() must not leave its
        # derivative tables (and thus its whole derived grammar) attached to
        # long-lived shared nodes — its finalizer sweeps them off.
        import gc
        import weakref

        from repro.core.languages import reachable_nodes

        nodes = reachable_nodes(shared_arith())
        dropped = PerNodeDictMemo(Metrics())
        survivor = PerNodeDictMemo(Metrics())
        dropped_owner = dropped._owner
        class Result:
            pass

        kept = make_token("2")
        result = Result()  # a stand-in derivative a weak reference can watch
        released = weakref.ref(result)
        for node in nodes:
            dropped.put(node, "x", result)
            survivor.put(node, "x", kept)
        del dropped, result
        gc.collect()
        assert released() is None
        for node in nodes:
            assert dropped_owner not in node.memo_table
            assert survivor.get(node, "x") is kept

    def test_two_dict_parsers_one_grammar(self):
        grammar = shared_arith()
        first = DerivativeParser(grammar, memo="dict")
        second = DerivativeParser(grammar, memo="dict")
        assert first.recognize(list("n+n")) is True
        assert second.recognize(list("n+")) is False
        first.reset()
        assert second.recognize(list("n+n")) is True
        assert first.recognize(list("n*n")) is True


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
