"""Unit tests for the accelerated nullability fixed point (Section 4.2)."""

import pytest

from repro.core.languages import (
    EMPTY,
    Alt,
    Cat,
    Delta,
    Reduce,
    Ref,
    epsilon,
    token,
)
from repro.core.metrics import Metrics
from repro.core.nullability import LIVE, NULLABLE, NullabilityAnalyzer


@pytest.fixture
def analyzer():
    return NullabilityAnalyzer(Metrics())


class TestBaseCases:
    def test_empty_not_nullable(self, analyzer):
        assert analyzer.nullable(EMPTY) is False

    def test_epsilon_nullable(self, analyzer):
        assert analyzer.nullable(epsilon()) is True

    def test_token_not_nullable(self, analyzer):
        assert analyzer.nullable(token("a")) is False


class TestCompositeCases:
    def test_alt_nullable_if_either_child(self, analyzer):
        assert analyzer.nullable(Alt(token("a"), epsilon())) is True
        assert analyzer.nullable(Alt(epsilon(), token("a"))) is True
        assert analyzer.nullable(Alt(token("a"), token("b"))) is False

    def test_cat_nullable_only_if_both_children(self, analyzer):
        assert analyzer.nullable(Cat(epsilon(), epsilon())) is True
        assert analyzer.nullable(Cat(epsilon(), token("a"))) is False
        assert analyzer.nullable(Cat(token("a"), epsilon())) is False

    def test_reduce_follows_child(self, analyzer):
        assert analyzer.nullable(Reduce(epsilon(), lambda t: t)) is True
        assert analyzer.nullable(Reduce(token("a"), lambda t: t)) is False

    def test_delta_follows_child(self, analyzer):
        assert analyzer.nullable(Delta(epsilon())) is True
        assert analyzer.nullable(Delta(token("a"))) is False

    def test_ref_follows_target(self, analyzer):
        ref = Ref("n", epsilon())
        assert analyzer.nullable(ref) is True


class TestCyclicGrammars:
    def test_left_recursive_not_nullable(self, analyzer):
        # L = L a | a  — never nullable.
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), token("a")))
        assert analyzer.nullable(ref) is False

    def test_left_recursive_with_epsilon_alternative(self, analyzer):
        # L = L a | ε — nullable via the ε alternative.
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), epsilon()))
        assert analyzer.nullable(ref) is True

    def test_mutually_recursive_grammar(self, analyzer):
        # A = B a | ε ;  B = A b  — A nullable, B not.
        a_ref, b_ref = Ref("A"), Ref("B")
        a_ref.set(Alt(Cat(b_ref, token("a")), epsilon()))
        b_ref.set(Cat(a_ref, token("b")))
        assert analyzer.nullable(a_ref) is True
        assert analyzer.nullable(b_ref) is False

    def test_nullable_only_through_cycle_is_false(self, analyzer):
        # L = L — a degenerate cycle; least fixed point gives not-nullable.
        ref = Ref("L")
        inner = Ref("M")
        ref.set(Alt(inner, inner))
        inner.set(Alt(ref, ref))
        assert analyzer.nullable(ref) is False

    def test_self_concatenation_worst_case_grammar(self, analyzer):
        # L = (L ◦ L) ∪ c — the paper's Figure 5 grammar — not nullable.
        ref = Ref("L")
        ref.set(Alt(Cat(ref, ref), token("c")))
        assert analyzer.nullable(ref) is False


class TestCachingAndMetrics:
    def test_final_states_cached_after_fixed_point(self, analyzer):
        ref = Ref("L")
        body = Alt(Cat(ref, token("a")), epsilon())
        ref.set(body)
        assert analyzer.nullable(ref) is True
        assert ref.state == NULLABLE
        # Cat(ref, a) is not nullable and, after the fixed point completes,
        # must be promoted to a final not-nullable state (Section 4.2).
        cat_node = body.left
        assert cat_node.state == LIVE

    def test_second_query_hits_cache(self, analyzer):
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), epsilon()))
        analyzer.nullable(ref)
        fixed_points_before = analyzer.metrics.nullable_fixed_points
        analyzer.nullable(ref)
        assert analyzer.metrics.nullable_fixed_points == fixed_points_before

    def test_node_visit_counter_increases(self, analyzer):
        ref = Ref("L")
        ref.set(Alt(Cat(ref, token("a")), epsilon()))
        analyzer.nullable(ref)
        assert analyzer.metrics.nullable_calls > 0

    def test_shared_subgraphs_resolved_once(self, analyzer):
        shared = Alt(token("a"), epsilon())
        root = Cat(shared, shared)
        assert analyzer.nullable(root) is True
        before = analyzer.metrics.nullable_fixed_points
        # Both the root and the shared child are now final.
        assert analyzer.nullable(shared) is True
        assert analyzer.metrics.nullable_fixed_points == before


class TestErrorHandling:
    def test_incomplete_node_raises(self, analyzer):
        # The left child is nullable, so the missing right child must be
        # consulted, which is an error for an incomplete node.
        with pytest.raises(ValueError):
            analyzer.nullable(Cat(epsilon(), None))

    def test_deep_chain_does_not_hit_recursion_limit(self, analyzer):
        node = epsilon()
        for _ in range(3000):
            node = Cat(node, epsilon())
        assert analyzer.nullable(node) is True
