"""Unit tests for the grammar node representation."""

from repro.core.languages import (
    EMPTY,
    Alt,
    Cat,
    Delta,
    Empty,
    Epsilon,
    Language,
    Reduce,
    Ref,
    Token,
    any_token,
    as_language,
    epsilon,
    graph_size,
    iter_children,
    reachable_nodes,
    token,
    token_kind,
    token_value,
)


class TestNodeBasics:
    def test_empty_is_singleton_like(self):
        assert isinstance(EMPTY, Empty)
        assert EMPTY.children() == ()

    def test_epsilon_carries_trees(self):
        eps = epsilon("hello")
        assert isinstance(eps, Epsilon)
        assert eps.trees == ("hello",)

    def test_epsilon_default_tree_is_unit(self):
        assert epsilon().trees == ((),)

    def test_epsilon_multiple_trees(self):
        eps = Epsilon(("a", "b"))
        assert eps.trees == ("a", "b")

    def test_node_ids_are_unique_and_increasing(self):
        first = Token("a")
        second = Token("b")
        assert second.node_id > first.node_id

    def test_nodes_hash_by_identity(self):
        a1 = Token("a")
        a2 = Token("a")
        assert a1 != a2
        assert len({a1, a2}) == 2

    def test_repr_and_describe_do_not_crash(self):
        nodes = [
            EMPTY,
            epsilon(1),
            token("x"),
            Alt(token("a"), token("b")),
            Cat(token("a"), token("b")),
            Reduce(token("a"), lambda t: t),
            Delta(token("a")),
            Ref("n", token("a")),
        ]
        for node in nodes:
            assert isinstance(repr(node), str)
            assert isinstance(node.describe(), str)


class TestTokenMatching:
    def test_token_matches_plain_value(self):
        assert token("a").matches("a")
        assert not token("a").matches("b")

    def test_token_matches_kind_value_pair(self):
        assert token("NAME").matches(("NAME", "foo"))
        assert not token("NAME").matches(("NUMBER", "42"))

    def test_token_matches_object_with_kind(self):
        class Tok:
            def __init__(self, kind, value):
                self.kind = kind
                self.value = value

        assert token("NUM").matches(Tok("NUM", 3))
        assert not token("NUM").matches(Tok("STR", "x"))

    def test_any_token_matches_everything(self):
        wildcard = any_token()
        assert wildcard.matches("a")
        assert wildcard.matches(("NAME", "foo"))
        assert wildcard.matches(42)

    def test_predicate_token(self):
        digits = Token(predicate=lambda t: str(t).isdigit(), label="digit")
        assert digits.matches("7")
        assert not digits.matches("x")

    def test_token_kind_and_value_helpers(self):
        assert token_kind("a") == "a"
        assert token_value("a") == "a"
        assert token_kind(("NAME", "foo")) == "NAME"
        assert token_value(("NAME", "foo")) == "foo"


class TestCombinatorSugar:
    def test_or_builds_alt(self):
        node = token("a") | token("b")
        assert isinstance(node, Alt)

    def test_add_builds_cat(self):
        node = token("a") + token("b")
        assert isinstance(node, Cat)

    def test_plain_values_are_coerced(self):
        node = token("a") + "b"
        assert isinstance(node, Cat)
        assert isinstance(node.right, Token)
        assert node.right.matches("b")

    def test_reverse_coercion(self):
        node = "a" + token("b")
        assert isinstance(node, Cat)
        assert isinstance(node.left, Token)

    def test_map_builds_reduce(self):
        node = token("a").map(lambda t: ("wrapped", t))
        assert isinstance(node, Reduce)

    def test_as_language_passthrough(self):
        tok = token("a")
        assert as_language(tok) is tok


class TestRefs:
    def test_ref_set_returns_self(self):
        ref = Ref("expr")
        assert ref.set(token("a")) is ref
        assert isinstance(ref.target, Token)

    def test_unresolved_ref_has_no_children(self):
        assert Ref("expr").children() == ()


class TestGraphTraversal:
    def test_reachable_nodes_acyclic(self):
        a, b = token("a"), token("b")
        root = Alt(Cat(a, b), a)
        nodes = reachable_nodes(root)
        assert root in nodes
        assert a in nodes and b in nodes
        # `a` is shared but reported once
        assert len([n for n in nodes if n is a]) == 1

    def test_reachable_nodes_handles_cycles(self):
        ref = Ref("L")
        body = Alt(Cat(ref, token("x")), epsilon())
        ref.set(body)
        nodes = reachable_nodes(ref)
        assert ref in nodes
        assert body in nodes

    def test_graph_size_counts_unique_nodes(self):
        a = token("a")
        root = Alt(a, a)
        assert graph_size(root) == 2

    def test_iter_children_skips_none(self):
        node = Alt(token("a"), None)
        assert len(list(iter_children(node))) == 1

    def test_deep_graph_traversal_is_iterative(self):
        # A graph much deeper than the default recursion limit must traverse.
        node = token("x")
        for _ in range(5000):
            node = Cat(node, token("x"))
        assert graph_size(node) == 10001


class TestLanguageBaseIsAbstractEnough:
    def test_language_children_default(self):
        assert Language().children() == ()


class TestCloneGraph:
    def test_clone_preserves_structure_and_language(self):
        from repro.core.languages import clone_graph, structural_fingerprint
        from repro.core.parse import DerivativeParser

        e, t, f = Ref("E"), Ref("T"), Ref("F")
        e.set((e + token("+") + t) | t)
        t.set((t + token("*") + f) | f)
        f.set((token("(") + e + token(")")) | token("n"))
        clone = clone_graph(e)
        assert structural_fingerprint(clone) == structural_fingerprint(e)
        for text, expected in [("n+n*n", True), ("n+", False), ("(n)", True)]:
            assert DerivativeParser(clone).recognize(list(text)) is expected

    def test_clone_shares_no_nodes_with_the_original(self):
        from repro.core.languages import EMPTY, clone_graph

        e = Ref("E")
        e.set((e + token("+") + token("n")) | token("n"))
        originals = {id(node) for node in reachable_nodes(e)}
        clone = clone_graph(e)
        shared = [n for n in reachable_nodes(clone) if id(n) in originals and n is not EMPTY]
        assert shared == []

    def test_clone_starts_cache_free(self):
        from repro.core.languages import clone_graph
        from repro.core.parse import DerivativeParser

        e = Ref("E")
        e.set((e + token("+") + token("n")) | token("n"))
        DerivativeParser(e, optimize_grammar=False).recognize(["n", "+", "n"])
        clone = clone_graph(e)
        for node in reachable_nodes(clone):
            assert node.memo_epoch == -1
            assert node.memo_table is None
            assert node.compiled_table is None

    def test_clone_carries_final_analyses(self):
        from repro.core.languages import clone_graph
        from repro.core.prune import prune_empty

        e = Ref("E")
        e.set((e + token("+") + token("n")) | token("n"))
        raw = clone_graph(e)
        assert raw.state is None
        prune_empty(e)
        clone = clone_graph(e)
        for source, copy in zip(reachable_nodes(e), reachable_nodes(clone)):
            assert source.state is not None
            assert copy.state == source.state
