"""Differential testing: derivative vs. compiled vs. Earley vs. GLR.

The parser families implement unrelated algorithms over the same CFG
substrate, which makes them excellent oracles for one another: any
recognition disagreement on any input is a bug in at least one of them.
These tests sweep valid streams, systematically corrupted streams and
hand-picked edge cases over the classic, ambiguous and PL/0 evaluation
grammars, asserting recognition agreement everywhere and — for the parsers
that report them — agreement on failure positions.

The compiled automaton (:mod:`repro.compile`) joins the sweep with a
*shared, progressively warming* transition table per grammar: every stream
checked both exercises and hardens the claim that cached token-class
transitions are interchangeable with fresh derivation.
"""

import random

import pytest

from repro.compile import CompiledParser
from repro.core import DerivativeParser, ParseError
from repro.earley import EarleyParser
from repro.glr import GLRParser
from repro.grammars import (
    arithmetic_grammar,
    balanced_parens_grammar,
    binary_sum_grammar,
    pl0_grammar,
    sexpr_grammar,
)
from repro.lexer.tokens import Tok
from repro.workloads import ambiguous_sum_tokens, arithmetic_tokens, pl0_tokens, sexpr_tokens


def corrupted_streams(tokens, seed=0):
    """Systematic mutations of a valid stream: truncate, insert, replace."""
    rng = random.Random(seed)
    streams = []
    if tokens:
        streams.append(tokens[:-1])  # drop the final token
        streams.append(tokens[1:])  # drop the first token
        position = rng.randrange(len(tokens))
        streams.append(tokens[:position] + [Tok("@")] + tokens[position:])  # insert junk
        position = rng.randrange(len(tokens))
        streams.append(tokens[:position] + [Tok("@")] + tokens[position + 1 :])  # replace
        streams.append(tokens + tokens[-1:])  # duplicate the final token
    return streams


def assert_recognition_agreement(grammar, streams):
    derivative = DerivativeParser(grammar.to_language())
    compiled = CompiledParser(grammar)  # shares the grammar's warm table
    earley = EarleyParser(grammar)
    glr = GLRParser(grammar)
    for stream in streams:
        expected = earley.recognize(stream)
        got_derivative = derivative.recognize(stream)
        got_compiled = compiled.recognize(stream)
        got_glr = glr.recognize(stream)
        assert got_derivative is expected, (
            "derivative vs Earley disagree on {!r}".format(stream)
        )
        assert got_compiled is expected, (
            "compiled vs Earley disagree on {!r}".format(stream)
        )
        # Immediately re-walk the now-cached stream: transition-cache hits
        # must reproduce the cold answer.
        assert compiled.recognize(stream) is expected, (
            "compiled warm re-run flipped on {!r}".format(stream)
        )
        assert got_glr is expected, "GLR vs Earley disagree on {!r}".format(stream)
        # Both streaming engines settle every derive step, so they fail at
        # exactly the token that empties the language: the same position
        # Earley reports.  A rejected stream that never fails is an
        # incomplete one, and Earley blames its end.
        interpreted_state = derivative.start().feed_all(stream)
        compiled_state = compiled.start().feed_all(stream)
        assert compiled_state.accepts() == interpreted_state.accepts() == expected, (
            "streaming accepts() disagrees on {!r}".format(stream)
        )
        assert compiled_state.failed == interpreted_state.failed, (
            "streaming failure disagrees on {!r}".format(stream)
        )
        if not expected:
            position = failure_position(earley, stream)
            if compiled_state.failed:
                assert (
                    interpreted_state.failure_position
                    == compiled_state.failure_position
                    == position
                ), "streaming failure positions disagree on {!r}".format(stream)
            else:
                assert position == len(stream), (
                    "incomplete stream blamed before its end: {!r}".format(stream)
                )


def failure_position(parser, stream):
    """The reported failure index, or None when the parse succeeds."""
    try:
        parser.parse(stream)
    except ParseError as err:
        return err.position
    return None


class TestClassicGrammars:
    @pytest.mark.parametrize("seed", range(4))
    def test_arithmetic_agreement(self, seed):
        grammar = arithmetic_grammar()
        valid = arithmetic_tokens(40, seed=seed)
        streams = [valid] + corrupted_streams(valid, seed=seed)
        assert_recognition_agreement(grammar, streams)

    @pytest.mark.parametrize("seed", range(3))
    def test_sexpr_agreement(self, seed):
        grammar = sexpr_grammar()
        valid = sexpr_tokens(30, seed=seed)
        streams = [valid] + corrupted_streams(valid, seed=seed)
        assert_recognition_agreement(grammar, streams)

    def test_balanced_parens_agreement(self):
        grammar = balanced_parens_grammar()
        streams = [
            [],
            [Tok("(")],
            [Tok("("), Tok(")")],
            [Tok("("), Tok("("), Tok(")"), Tok(")"), Tok("("), Tok(")")],
            [Tok(")"), Tok("(")],
            [Tok("("), Tok(")"), Tok(")")],
        ]
        assert_recognition_agreement(grammar, streams)

    def test_empty_and_single_token_edges(self):
        grammar = arithmetic_grammar()
        streams = [
            [],
            [Tok("NUMBER", "1")],
            [Tok("+")],
            [Tok("("), Tok(")")],
            [Tok("NAME", "x"), Tok("*"), Tok("NUMBER", "2")],
        ]
        assert_recognition_agreement(grammar, streams)


class TestPl0Grammar:
    """PL/0 (arXiv:2207.08972): a keyword-delimited statically-structured
    language — the compiled automaton's target workload shape."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pl0_agreement(self, seed):
        grammar = pl0_grammar()
        valid = pl0_tokens(120, seed=seed)
        streams = [valid] + corrupted_streams(valid, seed=seed)
        assert_recognition_agreement(grammar, streams)

    def test_pl0_edge_cases(self):
        grammar = pl0_grammar()
        streams = [
            [Tok(".")],  # empty statement is a valid program body
            [],
            [Tok("begin"), Tok("end"), Tok(".")],
            [Tok("begin"), Tok(";"), Tok("end"), Tok(".")],
            [Tok("IDENT", "x"), Tok(":="), Tok("NUMBER", "1"), Tok(".")],
            [Tok("IDENT", "x"), Tok(":="), Tok(".")],
            [Tok("var"), Tok("IDENT", "x"), Tok(".")],
            [Tok("if"), Tok("odd"), Tok("IDENT", "x"), Tok("then"), Tok(".")],
        ]
        assert_recognition_agreement(grammar, streams)


class TestAmbiguousGrammars:
    @pytest.mark.parametrize("terms", [1, 2, 3, 5, 8])
    def test_binary_sum_agreement(self, terms):
        grammar = binary_sum_grammar()
        valid = ambiguous_sum_tokens(terms)
        streams = [valid] + corrupted_streams(valid, seed=terms)
        assert_recognition_agreement(grammar, streams)

    def test_ambiguous_forest_sizes_match_catalan(self):
        # Recognition agreement plus the derivative parser's forest count —
        # GLR and Earley accept the same strings; the forest pins ambiguity.
        from repro.core import count_trees

        grammar = binary_sum_grammar()
        derivative = DerivativeParser(grammar.to_language())
        forest = derivative.parse_forest(ambiguous_sum_tokens(4))
        assert count_trees(forest) == 5  # Catalan(3)


class TestFailurePositions:
    """Derivative and Earley both report the index of the offending token."""

    CASES = [
        ("n+*n", 2),
        ("*", 0),
        ("n n", 1),
        ("(n+n))", 5),
        ("n+", 2),  # unexpected end of input → position == len(tokens)
    ]

    @pytest.mark.parametrize("text,expected", CASES)
    def test_failure_positions_agree(self, text, expected):
        grammar = arithmetic_grammar()
        tokens = [
            Tok("NUMBER", "1") if ch == "n" else Tok(ch) for ch in text if ch != " "
        ]
        if " " in text:
            tokens = [Tok("NUMBER", "1"), Tok("NUMBER", "2")]
        derivative = DerivativeParser(grammar.to_language())
        compiled = CompiledParser(grammar)
        earley = EarleyParser(grammar)

        derivative_position = failure_position(derivative, tokens)
        compiled_position = failure_position(compiled, tokens)
        earley_position = failure_position(earley, tokens)
        assert derivative_position == expected
        assert compiled_position == expected
        assert earley_position == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_failure_positions_agree_on_corrupted_streams(self, seed):
        grammar = arithmetic_grammar()
        valid = arithmetic_tokens(24, seed=seed)
        derivative = DerivativeParser(grammar.to_language())
        compiled = CompiledParser(grammar)
        earley = EarleyParser(grammar)
        for stream in corrupted_streams(valid, seed=seed):
            derivative_position = failure_position(derivative, stream)
            compiled_position = failure_position(compiled, stream)
            earley_position = failure_position(earley, stream)
            assert derivative_position == earley_position, (
                "failure positions diverge on {!r}".format(stream)
            )
            assert compiled_position == earley_position, (
                "compiled failure position diverges on {!r}".format(stream)
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_pl0_failure_positions_agree(self, seed):
        grammar = pl0_grammar()
        valid = pl0_tokens(80, seed=seed)
        derivative = DerivativeParser(grammar.to_language())
        compiled = CompiledParser(grammar)
        earley = EarleyParser(grammar)
        for stream in [valid] + corrupted_streams(valid, seed=seed):
            derivative_position = failure_position(derivative, stream)
            compiled_position = failure_position(compiled, stream)
            earley_position = failure_position(earley, stream)
            assert derivative_position == earley_position, (
                "failure positions diverge on {!r}".format(stream)
            )
            assert compiled_position == earley_position, (
                "compiled failure position diverges on {!r}".format(stream)
            )
