"""Tests for the original 2011 PWD baseline and its equivalence with the core parser."""

import math

import pytest

from repro.baseline import NaiveNullability, OriginalParser
from repro.core import DerivativeParser, GrammarError, ParseError, Ref, count_trees, epsilon, token
from repro.core.languages import Alt, Cat
from repro.core.metrics import Metrics


def arith():
    e, t, f = Ref("E"), Ref("T"), Ref("F")
    e.set((e + token("+") + t) | t)
    t.set((t + token("*") + f) | f)
    f.set((token("(") + e + token(")")) | token("n"))
    return e


def ambiguous():
    e = Ref("E")
    e.set((e + token("+") + e) | token("n"))
    return e


def epsilon_cycle():
    """S = S S | n | ε — the ε-cycle makes every input infinitely ambiguous."""
    s = Ref("S")
    s.set((s + s) | token("n") | epsilon())
    return s


class TestNaiveNullability:
    def test_base_cases(self):
        analyzer = NaiveNullability(Metrics())
        assert analyzer.nullable(epsilon()) is True
        assert analyzer.nullable(token("a")) is False

    def test_cyclic_grammar(self):
        analyzer = NaiveNullability(Metrics())
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), epsilon()))
        assert analyzer.nullable(ref) is True

    def test_no_caching_between_calls(self):
        metrics = Metrics()
        analyzer = NaiveNullability(metrics)
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), epsilon()))
        analyzer.nullable(ref)
        first = metrics.nullable_calls
        analyzer.nullable(ref)
        # The naive algorithm repeats all the work on the second call.
        assert metrics.nullable_calls == 2 * first

    def test_visit_count_is_superlinear_shape(self):
        # Each sweep visits every node and sweeps repeat, so the count is at
        # least the number of nodes.
        metrics = Metrics()
        analyzer = NaiveNullability(metrics)
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), epsilon()))
        analyzer.nullable(ref)
        assert metrics.nullable_calls >= 5


class TestOriginalParserRecognition:
    @pytest.mark.parametrize("compaction", [True, False])
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("n", True),
            ("n+n*n", True),
            ("(n+n)*n", True),
            ("n+", False),
            ("", False),
        ],
    )
    def test_arithmetic(self, compaction, text, expected):
        parser = OriginalParser(arith(), compaction=compaction)
        assert parser.recognize(list(text)) is expected

    def test_left_recursion(self):
        lst = Ref("L")
        lst.set((lst + token("a")) | token("a"))
        parser = OriginalParser(lst)
        assert parser.recognize(["a"] * 20) is True
        assert parser.recognize([]) is False

    def test_unresolved_ref_rejected(self):
        with pytest.raises(GrammarError):
            OriginalParser(Ref("nope"))

    def test_non_language_rejected(self):
        with pytest.raises(GrammarError):
            OriginalParser(object())


class TestOriginalParserTrees:
    def test_simple_tree(self):
        parser = OriginalParser(token("a") + token("b"))
        assert parser.parse(list("ab")) == ("a", "b")

    @pytest.mark.parametrize(
        "grammar, text, count",
        [(ambiguous, "n+n+n+n", 5), (epsilon_cycle, "nnn", math.inf)],
        ids=["binary-sum", "epsilon-cycle"],
    )
    def test_ambiguous_counts_match_core(self, grammar, text, count):
        original = OriginalParser(grammar())
        improved = DerivativeParser(grammar())
        tokens = list(text)
        assert count_trees(original.parse_forest(tokens)) == count_trees(
            improved.parse_forest(tokens)
        ) == count

    def test_parse_error_raised(self):
        parser = OriginalParser(arith())
        with pytest.raises(ParseError):
            parser.parse(list("n+"))

    def test_parse_trees_limit(self):
        parser = OriginalParser(ambiguous())
        assert len(parser.parse_trees(list("n+n+n"), limit=1)) == 1


class TestEquivalenceWithImprovedParser:
    INPUTS = ["n", "n+n", "n*n+n", "(n)", "((n+n))*n", "n+n+n+n", "n*", "+", "(n", ""]

    @pytest.mark.parametrize("text", INPUTS)
    def test_recognition_agrees(self, text):
        tokens = list(text)
        assert OriginalParser(arith()).recognize(tokens) is DerivativeParser(
            arith()
        ).recognize(tokens)

    @pytest.mark.parametrize("text", ["n", "n+n", "n+n*n"])
    def test_trees_agree_on_unambiguous_inputs(self, text):
        tokens = list(text)
        assert OriginalParser(arith()).parse(tokens) == DerivativeParser(arith()).parse(tokens)

    def test_improved_parser_does_less_nullability_work(self):
        """The Figure 7 effect: far fewer nullable? evaluations in the improved parser."""
        tokens = list("n+n*n+(n*n)+n+n*n")
        original = OriginalParser(arith())
        improved = DerivativeParser(arith())
        original.recognize(tokens)
        improved.recognize(tokens)
        assert improved.metrics.nullable_calls < original.metrics.nullable_calls

    def test_improved_parser_creates_fewer_nodes_with_compaction(self):
        tokens = list("n+n*n+(n*n)")
        original = OriginalParser(arith(), compaction=False)
        improved = DerivativeParser(arith())
        original.recognize(tokens)
        improved.recognize(tokens)
        assert improved.metrics.nodes_created < original.metrics.nodes_created


class TestMemoTables:
    def test_memo_entry_distribution_counts_tokens_per_node(self):
        parser = OriginalParser(arith())
        parser.recognize(list("n+n"))
        distribution = parser.memo_entry_distribution()
        assert sum(distribution.values()) > 0
        assert all(size >= 1 for size in distribution)

    def test_reset_clears_memo(self):
        parser = OriginalParser(arith())
        parser.recognize(list("n+n"))
        parser.reset()
        assert parser.memo_entry_distribution() == {}
        assert parser.recognize(list("n+n")) is True

    def test_derive_all_exposed(self):
        parser = OriginalParser(arith())
        final = parser.derive_all(list("n+n"))
        assert final is not None
