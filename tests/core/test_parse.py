"""Integration tests for DerivativeParser: recognition, parsing, forests."""

import pytest

from repro.core import (
    CompactionConfig,
    DerivativeParser,
    GrammarError,
    ParseError,
    Ref,
    count_trees,
    epsilon,
    iter_trees,
    parse,
    recognize,
    token,
)
from repro.core.languages import Alt, any_token
from repro.core.parse import validate_grammar


def balanced_parens():
    """S = ( S ) S | ε"""
    s = Ref("S")
    s.set((token("(") + s + token(")") + s) | epsilon("leaf"))
    return s


def arith():
    """E = E + T | T ;  T = T * F | F ;  F = ( E ) | n"""
    e, t, f = Ref("E"), Ref("T"), Ref("F")
    e.set((e + token("+") + t).map(lambda tree: ("add", tree)) | t)
    t.set((t + token("*") + f).map(lambda tree: ("mul", tree)) | f)
    f.set((token("(") + e + token(")")).map(lambda tree: ("paren", tree)) | token("n"))
    return e

def ambiguous_sum():
    """E = E + E | n — exponentially ambiguous."""
    e = Ref("E")
    e.set((e + token("+") + e) | token("n"))
    return e


class TestRecognition:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", True),
            ("()", True),
            ("(())()", True),
            ("((()))", True),
            ("(()", False),
            (")(", False),
            ("())", False),
        ],
    )
    def test_balanced_parens(self, text, expected):
        parser = DerivativeParser(balanced_parens())
        assert parser.recognize(list(text)) is expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("n", True),
            ("n+n", True),
            ("n+n*n", True),
            ("(n+n)*n", True),
            ("n+", False),
            ("", False),
            ("n n", False),
            ("*n", False),
        ],
    )
    def test_arithmetic(self, text, expected):
        tokens = [ch for ch in text if ch != " "]
        if "n n" in text:
            tokens = list("nn")
        parser = DerivativeParser(arith())
        assert parser.recognize(tokens) is expected

    def test_left_recursion(self):
        lst = Ref("L")
        lst.set((lst + token("a")) | token("a"))
        parser = DerivativeParser(lst)
        assert parser.recognize(["a"] * 50) is True
        assert parser.recognize([]) is False
        assert parser.recognize(["a", "b"]) is False

    def test_right_recursion(self):
        lst = Ref("L")
        lst.set((token("a") + lst) | token("a"))
        parser = DerivativeParser(lst)
        assert parser.recognize(["a"] * 50) is True
        assert parser.recognize(["b"]) is False

    def test_empty_grammar_rejects_everything(self):
        from repro.core import EMPTY

        parser = DerivativeParser(EMPTY)
        assert parser.recognize([]) is False
        assert parser.recognize(["a"]) is False

    def test_epsilon_grammar_accepts_only_empty(self):
        parser = DerivativeParser(epsilon("done"))
        assert parser.recognize([]) is True
        assert parser.recognize(["a"]) is False

    def test_module_level_helpers(self):
        assert recognize(token("a"), ["a"]) is True
        assert parse(token("a"), ["a"]) == "a"


class TestParseTrees:
    def test_single_token(self):
        parser = DerivativeParser(token("a"))
        assert parser.parse(["a"]) == "a"

    def test_sequence_tree_shape(self):
        grammar = token("a") + token("b") + token("c")
        parser = DerivativeParser(grammar)
        assert parser.parse(list("abc")) == (("a", "b"), "c")

    def test_sequence_tree_shape_without_compaction(self):
        grammar = token("a") + token("b") + token("c")
        parser = DerivativeParser(grammar, compaction=False, optimize_grammar=False)
        assert parser.parse(list("abc")) == (("a", "b"), "c")

    def test_reductions_applied(self):
        grammar = (token("a") + token("b")).map(lambda t: {"pair": t})
        parser = DerivativeParser(grammar)
        assert parser.parse(list("ab")) == {"pair": ("a", "b")}

    def test_arith_tree_is_left_associative(self):
        parser = DerivativeParser(arith())
        tree = parser.parse(list("n+n+n"))
        # ((n + n) + n): the outer node is an add whose left operand is an add.
        assert tree[0] == "add"
        assert tree[1][0][0][0] == "add"

    def test_ambiguous_grammar_yields_multiple_trees(self):
        parser = DerivativeParser(ambiguous_sum())
        forest = parser.parse_forest(list("n+n+n"))
        assert count_trees(forest) == 2
        trees = set(iter_trees(forest))
        assert trees == {
            (((("n", "+"), "n"), "+"), "n"),  # (n + n) + n
            (("n", "+"), (("n", "+"), "n")),  # n + (n + n)
        }

    def test_catalan_ambiguity_counts(self):
        parser_cls = lambda: DerivativeParser(ambiguous_sum())
        # n+n+n+n has Catalan(3) = 5 parses.
        assert count_trees(parser_cls().parse_forest(list("n+n+n+n"))) == 5
        # n+n+n+n+n has Catalan(4) = 14 parses.
        assert count_trees(parser_cls().parse_forest(list("n+n+n+n+n"))) == 14

    def test_parse_trees_limit(self):
        parser = DerivativeParser(ambiguous_sum())
        for ranking in (None, "size"):
            for limit in (3, 0):
                trees = parser.parse_trees(list("n+n+n+n"), limit=limit, ranking=ranking)
                assert len(trees) == limit, (ranking, limit)

    def test_nullable_parse_of_empty_input(self):
        parser = DerivativeParser(balanced_parens())
        assert parser.parse([]) == "leaf"

    def test_parse_error_reports_position(self):
        parser = DerivativeParser(arith())
        with pytest.raises(ParseError) as err:
            parser.parse(list("n+*n"))
        assert err.value.position == 2
        assert err.value.token == "*"

    def test_parse_error_at_end_of_input(self):
        parser = DerivativeParser(arith())
        with pytest.raises(ParseError) as err:
            parser.parse(list("n+"))
        assert err.value.position == 2


class TestConfigurationMatrix:
    TEXTS = ["n", "n+n", "n*n+n", "(n+n)*n", "((n))"]

    @pytest.mark.parametrize("memo", ["single", "dict"])
    @pytest.mark.parametrize(
        "compaction",
        [CompactionConfig.full(), CompactionConfig.original_2011(), CompactionConfig.disabled()],
    )
    def test_all_configurations_agree(self, memo, compaction):
        for text in self.TEXTS:
            parser = DerivativeParser(arith(), memo=memo, compaction=compaction)
            assert parser.recognize(list(text)) is True, (memo, compaction, text)
        parser = DerivativeParser(arith(), memo=memo, compaction=compaction)
        assert parser.recognize(list("n+")) is False

    @pytest.mark.parametrize("memo", ["single", "dict"])
    def test_trees_identical_across_memo_strategies(self, memo):
        parser = DerivativeParser(arith(), memo=memo)
        assert parser.parse(list("n+n*n"))[0] == "add"

    def test_naming_instrumentation_can_be_enabled(self):
        parser = DerivativeParser(ambiguous_sum(), naming=True)
        assert parser.recognize(list("n+n")) is True
        audit = parser.naming.audit(3)
        assert audit.lemma7_holds
        assert audit.lemma6_holds


class TestParserHygiene:
    def test_unresolved_ref_rejected_at_construction(self):
        with pytest.raises(GrammarError):
            DerivativeParser(Ref("oops"))

    def test_validate_grammar_accepts_complete_graph(self):
        validate_grammar(arith())

    def test_validate_grammar_rejects_missing_child(self):
        with pytest.raises(GrammarError):
            validate_grammar(Alt(token("a"), None))

    def test_non_language_grammar_rejected(self):
        with pytest.raises(GrammarError):
            DerivativeParser(42)

    def test_reset_clears_memo(self):
        parser = DerivativeParser(arith())
        parser.recognize(list("n+n"))
        parser.reset()
        assert parser.recognize(list("n+n")) is True

    def test_parser_reusable_across_inputs(self):
        parser = DerivativeParser(arith())
        assert parser.recognize(list("n")) is True
        assert parser.recognize(list("n+n")) is True
        assert parser.recognize(list("n+")) is False
        assert parser.recognize(list("n*n")) is True

    def test_grammar_size_reported(self):
        parser = DerivativeParser(arith())
        assert parser.grammar_size() > 3

    def test_metrics_track_tokens(self):
        parser = DerivativeParser(arith())
        parser.recognize(list("n+n"))
        assert parser.metrics.tokens_consumed == 3

    def test_derivative_trace_lengths(self):
        parser = DerivativeParser(arith())
        trace = parser.derivative_trace(list("n+n"))
        assert len(trace) == 4

    def test_tokens_with_kind_value_pairs(self):
        grammar = token("NAME") + token("=") + token("NUMBER")
        parser = DerivativeParser(grammar)
        tokens = [("NAME", "x"), ("=", "="), ("NUMBER", "42")]
        assert parser.parse(tokens) == (("x", "="), "42")

    def test_any_token_grammar(self):
        grammar = any_token() + any_token()
        parser = DerivativeParser(grammar)
        assert parser.recognize(["foo", "bar"]) is True
        assert parser.recognize(["foo"]) is False


class TestOneShotIterators:
    """Tree APIs take any iterable: a rejected stream raises ``ParseError``."""

    TREE_CALLS = {
        "parse": lambda parser, tokens: parser.parse(tokens),
        "parse_forest": lambda parser, tokens: parser.parse_forest(tokens),
        "parse_trees": lambda parser, tokens: parser.parse_trees(tokens, limit=2),
        "sample_parses": lambda parser, tokens: parser.sample_parses(tokens, 0),
    }

    @staticmethod
    def parsers():
        from repro.compile import CompiledParser

        return [DerivativeParser(arith()), CompiledParser(arith())]

    @pytest.mark.parametrize("call", sorted(TREE_CALLS))
    @pytest.mark.parametrize(
        "stream, position", [("n+*n", 2), ("n+n*", 4)], ids=["failing", "truncated"]
    )
    def test_rejected_iterator_raises_at_the_list_position(self, call, stream, position):
        for parser in self.parsers():
            with pytest.raises(ParseError) as excinfo:
                self.TREE_CALLS[call](parser, iter(list(stream)))
            assert excinfo.value.position == position, type(parser).__name__

    @pytest.mark.parametrize("call", sorted(TREE_CALLS))
    @pytest.mark.parametrize("stream", ["n+*n", "n+n*"], ids=["failing", "truncated"])
    def test_original_parser_raises_at_the_input_length(self, call, stream):
        from repro.baseline import OriginalParser

        # The 2011 parser reports no exact failing token, only the input's end.
        with pytest.raises(ParseError) as excinfo:
            self.TREE_CALLS[call](OriginalParser(arith()), iter(list(stream)))
        assert excinfo.value.position == len(stream)

    @pytest.mark.parametrize("engine", ["derivative", "compiled"])
    def test_parse_wrapper_takes_iterators(self, engine):
        with pytest.raises(ParseError) as excinfo:
            parse(arith(), iter(list("n+*n")), engine=engine)
        assert excinfo.value.position == 2
        with pytest.raises(ParseError) as excinfo:
            parse(arith(), iter(list("n+n*")), engine=engine)
        assert excinfo.value.position == 4
        assert parse(arith(), iter(list("n+n")), engine=engine) == parse(
            arith(), list("n+n"), engine=engine
        )
