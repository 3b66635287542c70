"""Streaming (ParserState) API and deep-input behaviour of the iterative engine.

The engine must handle inputs whose derived grammars are far deeper than the
interpreter recursion limit — these tests pin the limit to CPython's default
(1000) for their duration, so any traversal that slipped back to host-stack
recursion fails loudly here.
"""

import sys

import pytest

from repro.core import DerivativeParser, ParseError, ParserState, Ref, token


@pytest.fixture
def default_recursion_limit():
    """Run the test under CPython's out-of-the-box recursion limit."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def right_recursive_list():
    """L = a L | a"""
    lst = Ref("L")
    lst.set((token("a") + lst) | token("a"))
    return lst


def classic_expression():
    """E = E + T | T ; T = T * F | F ; F = ( E ) | n"""
    e, t, f = Ref("E"), Ref("T"), Ref("F")
    e.set((e + token("+") + t) | t)
    t.set((t + token("*") + f) | f)
    f.set((token("(") + e + token(")")) | token("n"))
    return e


def failure_position(parser, stream):
    """The position of the error ``parser.parse`` raises, or None."""
    try:
        parser.parse(stream)
    except ParseError as err:
        return err.position
    return None


class TestParserState:
    def test_start_returns_fresh_state(self):
        parser = DerivativeParser(right_recursive_list())
        state = parser.start()
        assert isinstance(state, ParserState)
        assert state.position == 0
        assert not state.failed

    def test_feed_advances_position(self):
        state = DerivativeParser(right_recursive_list()).start()
        state.feed("a").feed("a")
        assert state.position == 2
        assert state.accepts() is True

    def test_accepts_tracks_prefix_membership(self):
        # On the expression grammar "n", "n+n" accept but "n+" does not.
        state = DerivativeParser(classic_expression()).start()
        state.feed("n")
        assert state.accepts() is True
        state.feed("+")
        assert state.accepts() is False
        state.feed("n")
        assert state.accepts() is True

    def test_failure_records_position_and_sticks(self):
        grammar = token("a") + token("b") + token("c")
        state = DerivativeParser(grammar).start()
        state.feed_all(list("axc"))
        assert state.failed
        assert state.failure_position == 1
        # Feeding a dead state is a no-op, not an error.
        state.feed("b")
        assert state.failure_position == 1
        assert state.accepts() is False

    def test_semantic_failure_reported_by_accepts(self):
        # Deriving "n+" by "*" leaves a cyclic core that denotes ∅ although
        # compaction cannot collapse it; the step settles it and fails there.
        state = DerivativeParser(classic_expression()).start()
        state.feed_all(list("n+*n"))
        assert state.accepts() is False
        assert state.failure_position == 2

    def test_feed_all_accepts_generators(self):
        state = DerivativeParser(right_recursive_list()).start()
        state.feed_all("a" for _ in range(100))
        assert state.accepts() is True

    def test_state_tree_matches_batch_parse(self):
        tokens = list("n+n*n")
        batch = DerivativeParser(classic_expression()).parse(tokens)
        state = DerivativeParser(classic_expression()).start()
        assert state.feed_all(tokens).tree() == batch

    def test_state_forest_raises_on_failure(self):
        state = DerivativeParser(classic_expression()).start()
        state.feed_all(list("n+*"))
        with pytest.raises(ParseError):
            state.forest()

    def test_state_forest_diagnoses_dead_stream_not_end_of_input(self):
        # A junk token can leave a structurally non-empty but semantically
        # dead language; forest() must not claim the input merely ended.
        state = DerivativeParser(classic_expression()).start()
        state.feed_all(list("n+*n"))
        with pytest.raises(ParseError) as err:
            state.forest()
        assert "end of input" not in str(err.value)
        assert err.value.position == 2

    def test_state_forest_reports_earley_position_on_corrupted_pl0(self):
        # Each stream repeats one token: the language dies at the repeat, or
        # a few tokens later when the repeat itself still fits.  The stream
        # fails at exactly the token Earley reports, with no re-derivation.
        from repro.earley import EarleyParser
        from repro.grammars import pl0_grammar
        from repro.workloads import pl0_tokens

        grammar = pl0_grammar()
        tokens = pl0_tokens(80, seed=3)
        earley = EarleyParser(grammar)
        parser = DerivativeParser(grammar.to_language())
        for position in range(3, 60, 6):
            stream = tokens[:position] + [tokens[position - 1]] + tokens[position:]
            expected = failure_position(earley, stream)
            state = parser.start().feed_all(stream)
            if expected is None:
                assert state.accepts()
                continue
            with pytest.raises(ParseError) as err:
                state.forest()
            assert err.value.position == expected, (position, stream[position])

    def test_reused_parser_rejects_plus_first_stream_at_zero(self):
        # The second stream's first step is a memo hit on a derivative the
        # first stream already settled dead: it must still fail at 0.
        from repro.grammars import binary_sum_grammar
        from repro.lexer.tokens import Tok

        parser = DerivativeParser(binary_sum_grammar().to_language())
        for stream in ([Tok("+")], [Tok("+"), Tok("n")], [Tok("+"), Tok("n")]):
            assert parser.start().feed_all(stream).failure_position == 0
            assert failure_position(parser, stream) == 0

    def test_state_forest_raises_on_incomplete_input(self):
        state = DerivativeParser(classic_expression()).start()
        state.feed_all(list("n+"))
        with pytest.raises(ParseError) as err:
            state.forest()
        assert err.value.position == 2

    def test_multiple_states_on_one_parser(self):
        parser = DerivativeParser(classic_expression())
        a, b = parser.start(), parser.start()
        a.feed_all(list("n+n"))
        b.feed_all(list("n*"))
        assert a.accepts() is True
        assert b.accepts() is False


class TestDeepInputs:
    def test_100k_right_recursive_recognition(self, default_recursion_limit):
        parser = DerivativeParser(right_recursive_list())
        assert parser.recognize(["a"] * 100_000) is True

    def test_100k_right_recursive_rejection(self, default_recursion_limit):
        parser = DerivativeParser(right_recursive_list())
        assert parser.recognize(["a"] * 100_000 + ["b"]) is False

    def test_deep_parse_tree_extraction(self, default_recursion_limit):
        # Full pipeline — derive, parse-null, forest walk — at depth 30k.
        parser = DerivativeParser(right_recursive_list())
        tree = parser.parse(["a"] * 30_000)
        # The tree is a deep pair chain; count its spine without recursion.
        depth = 0
        while isinstance(tree, tuple):
            depth += 1
            tree = tree[-1]
        assert depth >= 1

    def test_deep_expression_chain(self, default_recursion_limit):
        from repro.workloads import chain_expression_tokens

        tokens = chain_expression_tokens(20_001, operator="+")
        grammar = Ref("E")
        t_ref, f_ref = Ref("T"), Ref("F")
        grammar.set((grammar + token("+") + t_ref) | t_ref)
        t_ref.set((t_ref + token("*") + f_ref) | f_ref)
        f_ref.set((token("(") + grammar + token(")")) | token("NAME"))
        parser = DerivativeParser(grammar)
        assert parser.recognize(tokens) is True

    def test_deep_tree_deduplication(self, default_recursion_limit):
        # Ambiguity dedup compares whole trees; trees from long inputs are
        # nested thousands of levels deep, so a naive `==` dies in C-level
        # recursion.  Two alternatives carrying the same 5000-deep tree must
        # dedup to one without touching the interpreter limit.
        from repro.core.forest import ForestAmb, ForestLeaf, iter_trees, trees_equal

        deep = ()
        for _ in range(5_000):
            deep = (deep, "a")
        clone = ()
        for _ in range(5_000):
            clone = (clone, "a")
        assert trees_equal(deep, clone)
        assert not trees_equal(deep, (clone, "a"))
        forest = ForestAmb([ForestLeaf((deep,)), ForestLeaf((clone,))])
        assert len(list(iter_trees(forest))) == 1

    def test_ambiguous_forest_enumeration_deeper_than_stack(self):
        # End-to-end: parse an ambiguous sum whose trees are deeper than the
        # interpreter limit and enumerate distinct parses.  (A 260-term sum
        # yields ~520-deep trees; the limit is pinned below that — the full
        # default-limit case scales identically but takes minutes.)
        from repro.grammars import binary_sum_grammar
        from repro.workloads import ambiguous_sum_tokens
        from repro.core import iter_trees

        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(500)
        try:
            forest = DerivativeParser(binary_sum_grammar().to_language()).parse_forest(
                ambiguous_sum_tokens(260)
            )
            assert len(list(iter_trees(forest, limit=2))) == 2
        finally:
            sys.setrecursionlimit(previous)

    def test_feed_all_does_not_overconsume_one_shot_iterators(self):
        grammar = token("a") + token("b")
        stream = iter(["a", "z", "b", "c"])
        state = DerivativeParser(grammar).start()
        state.feed_all(stream)
        assert state.failed and state.failure_position == 1
        # The failing feed must be the last pull; "b" and "c" stay available
        # for the caller's error recovery.
        assert list(stream) == ["b", "c"]

    def test_streaming_100k_under_default_limit(self, default_recursion_limit):
        state = DerivativeParser(right_recursive_list()).start()
        state.feed_all("a" for _ in range(100_000))
        assert not state.failed
        assert state.accepts() is True

    def test_deep_nullability_and_baseline_free_of_recursion_limit(
        self, default_recursion_limit
    ):
        assert DerivativeParser(right_recursive_list()).recognize(["a"] * 1_000) is True
        # The engine never touches the interpreter limit.
        assert sys.getrecursionlimit() == 1_000


class TestResetHygiene:
    def test_reset_keeps_parser_usable(self):
        parser = DerivativeParser(classic_expression())
        assert parser.recognize(list("n+n")) is True
        parser.reset()
        assert parser.recognize(list("n*n")) is True


class TestParserStateRepr:
    """Regression: repr must identify the grammar, not just position/status."""

    def test_repr_names_the_grammar_and_position(self):
        parser = DerivativeParser(classic_expression())
        state = parser.start()
        assert repr(state) == "ParserState(grammar=E, position=0, alive)"
        state.feed("n").feed("+").feed("n")
        assert repr(state) == "ParserState(grammar=E, position=3, alive)"

    def test_repr_reports_failure_position(self):
        parser = DerivativeParser(right_recursive_list())
        state = parser.start().feed("a").feed("b")
        assert state.failed
        assert repr(state) == "ParserState(grammar=L, position=2, failed@1)"

    def test_repr_uses_cfg_start_symbol(self):
        from repro.grammars import pl0_grammar

        state = DerivativeParser(pl0_grammar().to_language()).start()
        assert "grammar=program" in repr(state)

    def test_feed_after_failure_keeps_position_and_failure(self):
        # The documented no-op semantics: a dead state swallows feeds.
        parser = DerivativeParser(right_recursive_list())
        state = parser.start().feed("b")
        assert (state.position, state.failure_position) == (1, 0)
        state.feed("a").feed_all(["a", "a", "a"])
        assert (state.position, state.failure_position) == (1, 0)
