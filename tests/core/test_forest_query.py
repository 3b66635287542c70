"""Unit + property tests for the forest-query layer (count / rank / sample).

The layer's contract, pinned here:

* ``ForestQuery.count`` / ``count_trees`` / ``exact_count`` return an exact
  Python ``int`` for every finite forest (``math.inf`` exactly when there
  are infinitely many derivations; a cycle with no finite tree counts 0),
  matching closed forms far past 2⁵³;
* ``first_tree`` / ``iter_trees`` / sampling are one count-guided descent,
  checked against an independent recursive reference enumerator
  (:func:`reference_trees`): on acyclic forests ``iter_trees`` is the
  reference with repeats removed, on cyclic ones a non-empty subset
  exactly when the reference is non-empty;
* ranked extraction is lazy best-first: non-decreasing scores, top-k a
  verbatim prefix of top-(k+m), the exhausted stream a permutation of
  ``iter_trees`` (identical dedup semantics), every ranked tree a distinct
  valid derivation — scores measure the forest's derivation encoding, not
  the tree's node count or height, so only their order is pinned;
* sampling is ``tree_at`` of a uniform index: uniform over derivations,
  same-seed replayable, no enumeration or rejection;
* zero-tree forests raise :class:`EmptyForestError` (a ``ParseError`` *and*
  a ``ValueError``) with the diagnostic the parse layer aligns with.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DerivativeParser
from repro.core.errors import EmptyForestError, ParseError
from repro.core.forest import (
    FOREST_EMPTY,
    ForestAmb,
    ForestLeaf,
    ForestMap,
    ForestPair,
    ForestRef,
    count_trees,
    first_tree,
    iter_trees,
    tree_fingerprint,
)
from repro.core.forest_query import (
    RANKINGS,
    ForestQuery,
    Ranking,
    TreeDepthRanking,
    TreeSizeRanking,
    _tree_size,
    exact_count,
    iter_trees_ranked,
    ranking_by_name,
    sample_trees,
)
from repro.grammars import catalan_grammar
from repro.workloads import catalan_count, catalan_tokens


def make_cycle():
    """A forest whose every tree re-enters itself: infinitely many derivations."""
    ref = ForestRef(None)
    amb = ForestAmb([ForestLeaf(("x",)), ForestPair(ref, ForestLeaf(("y",)))])
    ref.target = amb
    return amb


def catalan_forest(leaves):
    parser = DerivativeParser(catalan_grammar().to_language())
    return parser.parse_forest(catalan_tokens(leaves))


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------
class TestExactCounts:
    def test_primitive_counts(self):
        assert exact_count(FOREST_EMPTY) == 0
        assert exact_count(ForestLeaf(("a", "b", "c"))) == 3
        assert exact_count(ForestPair(ForestLeaf(("a", "b")), ForestLeaf(("x",)))) == 2
        assert exact_count(ForestAmb([ForestLeaf(("a",)), ForestLeaf(("b",))])) == 2
        assert exact_count(ForestMap(str.upper, ForestLeaf(("a", "b")))) == 2
        assert exact_count(ForestRef(ForestLeaf(("a",)))) == 1

    def test_counts_are_exact_ints_not_floats(self):
        for leaves in (2, 5, 9):
            count = exact_count(catalan_forest(leaves))
            assert type(count) is int
            assert count == catalan_count(leaves)

    def test_astronomical_count_is_exact_past_float_precision(self):
        # Catalan(40) = 2_622_127_042_276_492_108_820 ≫ 2^53: any float in
        # the pass would silently corrupt the low digits.
        count = exact_count(catalan_forest(41))
        assert type(count) is int
        assert count == 2_622_127_042_276_492_108_820
        assert count == catalan_count(41)
        assert float(count) != count - 1  # the float neighbourhood is coarse

    def test_cyclic_forest_counts_inf(self):
        assert exact_count(make_cycle()) == math.inf
        assert count_trees(make_cycle()) == math.inf

    def test_count_trees_is_the_same_pass(self):
        forest = catalan_forest(6)
        assert count_trees(forest) == exact_count(forest) == catalan_count(6)

    def test_zero_guarded_cycle_stays_finite(self):
        # X first evaluates under its grey ancestor A and looks infinite,
        # but its cyclic alternative multiplies against an empty forest:
        # the true count is 2 derivations (both through leaf "a").  The
        # pass must not cache X's provisional inf.
        x = ForestRef(None)
        a = ForestAmb([ForestLeaf(("a",)), ForestPair(x, FOREST_EMPTY)])
        x.target = a
        root = ForestAmb([a, x])
        assert exact_count(root) == 2
        assert type(exact_count(root)) is int
        assert list(iter_trees(root)) == ["a"]

    def test_count_at_recomputes_skipped_nodes(self):
        right = ForestLeaf(("r1", "r2", "r3"))
        pair = ForestPair(FOREST_EMPTY, right)  # left-zero short-circuits right
        query = ForestQuery(pair)
        assert query.count == 0
        assert query.count_at(right) == 3


# ---------------------------------------------------------------------------
# cyclic forests: productivity, the finite core, the descent
# ---------------------------------------------------------------------------
class TestCyclicForests:
    def test_cycle_without_a_finite_tree_is_empty(self):
        ref = ForestRef()
        amb = ForestAmb([ref])
        ref.target = amb
        query = ForestQuery(amb)
        assert query.count == 0
        assert count_trees(amb) == 0
        with pytest.raises(EmptyForestError):
            first_tree(amb)
        with pytest.raises(EmptyForestError):
            query.sample(0)
        assert list(iter_trees(amb)) == []

    def test_cycle_reached_from_both_sides_of_a_pair(self):
        # L = Amb[a, R], R = Amb[L]: one DFS from the pair sees R only
        # through the back edge R → L, so cutting back edges would leave R
        # treeless and lose the tree.
        left = ForestAmb([ForestLeaf(("a",))])
        right = ForestAmb([left])
        left.alternatives.append(right)
        root = ForestPair(left, right)
        assert count_trees(root) == math.inf
        assert list(iter_trees(root)) == [("a", "a")]
        assert first_tree(root) == ("a", "a")
        assert reference_trees(root) == [("a", "a")]

    def test_tree_at_walks_the_finite_core(self):
        query = ForestQuery(make_cycle())
        assert query.count == math.inf
        assert query.tree_at(0) == "x"
        with pytest.raises(IndexError):
            query.tree_at(1)

    def test_tree_at_enumerates_in_derivation_order(self):
        forest = ForestPair(ForestLeaf(("a", "b")), ForestLeaf(("x", "y", "z")))
        query = ForestQuery(forest)
        assert [query.tree_at(i) for i in range(6)] == reference_trees(forest)
        with pytest.raises(IndexError):
            query.tree_at(6)
        with pytest.raises(IndexError):
            query.tree_at(-1)


# ---------------------------------------------------------------------------
# rankings
# ---------------------------------------------------------------------------
class TestRankings:
    def test_registry_names(self):
        assert set(RANKINGS) == {"size", "depth"}
        assert isinstance(RANKINGS["size"], TreeSizeRanking)
        assert isinstance(RANKINGS["depth"], TreeDepthRanking)

    def test_ranking_by_name_resolution(self):
        assert ranking_by_name("size") is RANKINGS["size"]
        assert ranking_by_name(None) is None
        custom = TreeSizeRanking()
        assert ranking_by_name(custom) is custom
        with pytest.raises(ValueError, match="size"):
            ranking_by_name("no-such-ranking")

    def test_base_ranking_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Ranking().leaf("t")
        with pytest.raises(NotImplementedError):
            Ranking().pair(1, 2)


# ---------------------------------------------------------------------------
# ranked (top-k) extraction
# ---------------------------------------------------------------------------
class TestRankedExtraction:
    def test_scores_are_non_decreasing(self):
        query = ForestQuery(catalan_forest(7), "size")
        scores = [score for score, _tree in query.iter_ranked()]
        assert scores == sorted(scores)
        assert len(scores) == catalan_count(7)

    def test_top_k_is_a_prefix_of_top_more(self):
        forest = catalan_forest(6)
        top3 = list(ForestQuery(forest, "size").iter_ranked(3))
        top10 = list(ForestQuery(forest, "size").iter_ranked(10))
        assert top10[:3] == top3

    def test_exhausted_stream_matches_iter_trees(self):
        forest = catalan_forest(6)
        ranked = [tree for _s, tree in ForestQuery(forest, "size").iter_ranked()]
        plain = list(iter_trees(forest))
        assert len(ranked) == len(plain)
        assert {repr(t) for t in ranked} == {repr(t) for t in plain}

    def test_dedup_matches_iter_trees_semantics(self):
        # Two derivations of the same tree: count says 2, both ranked
        # extraction and plain enumeration yield the tree once.
        forest = ForestAmb([ForestLeaf(("a",)), ForestLeaf(("a",))])
        assert exact_count(forest) == 2
        assert list(iter_trees(forest)) == ["a"]
        assert list(iter_trees_ranked(forest, "size")) == ["a"]

    def test_depth_ranking_orders_by_depth(self):
        forest = catalan_forest(5)
        scores = [s for s, _t in ForestQuery(forest, "depth").iter_ranked()]
        assert scores == sorted(scores)

    def test_module_helper_yields_trees_only(self):
        forest = catalan_forest(4)
        trees = list(iter_trees_ranked(forest, "size", k=2))
        assert len(trees) == 2
        assert all(not isinstance(t, ForestLeaf) for t in trees)

    def test_requires_a_ranking(self):
        with pytest.raises(ValueError, match="ranking"):
            ForestQuery(catalan_forest(3)).iter_ranked(1)

    def test_cyclic_forest_refuses_ranking(self):
        with pytest.raises(ValueError, match="cyclic"):
            ForestQuery(make_cycle(), "size").iter_ranked(1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            ForestQuery(catalan_forest(3), "size").iter_ranked(-1)

    def test_k_zero_yields_nothing(self):
        assert list(ForestQuery(catalan_forest(3), "size").iter_ranked(0)) == []

    def test_empty_forest_ranks_to_nothing(self):
        assert list(ForestQuery(FOREST_EMPTY, "size").iter_ranked()) == []

    def test_best_is_the_first_ranked_score(self):
        forest = catalan_forest(6)
        query = ForestQuery(forest, "size")
        (top_score, _tree), = list(query.iter_ranked(1))
        assert query.best == top_score

    def test_best_requires_ranking_and_acyclicity(self):
        with pytest.raises(ValueError, match="ranking"):
            ForestQuery(catalan_forest(3)).best
        with pytest.raises(ValueError, match="acyclic"):
            ForestQuery(make_cycle(), "size").best

    def test_astronomical_top_k_is_lazy(self):
        # 2.6e21 derivations; asking for 5 must not enumerate anything.
        query = ForestQuery(catalan_forest(41), "size")
        ranked = list(query.iter_ranked(5))
        assert len(ranked) == 5
        scores = [s for s, _t in ranked]
        assert scores == sorted(scores)


def is_derivation(grammar, tree, tokens):
    """True when ``tree`` — ``(lhs, children)`` nodes, terminals as token
    values — derives ``tokens`` from ``grammar``'s start symbol."""
    from repro.cfg.grammar import Nonterminal
    from repro.core.languages import token_kind, token_value

    leaves = []
    stack = [(tree, Nonterminal(grammar.start))]
    while stack:
        node, symbol = stack.pop()
        if not isinstance(symbol, Nonterminal):
            leaves.append((symbol, node))
            continue
        if type(node) is not tuple or len(node) != 2 or node[0] != symbol.name:
            return False
        children = node[1]
        for production in grammar.productions_for(symbol.name):
            if len(production.rhs) == len(children) and all(
                isinstance(rhs, Nonterminal) == (type(child) is tuple)
                for rhs, child in zip(production.rhs, children)
            ):
                break
        else:
            return False
        stack.extend(reversed(list(zip(children, production.rhs))))
    return leaves == [(token_kind(tok), token_value(tok)) for tok in tokens]


class TestRankingContract:
    """What ranked extraction promises on real parse forests.

    Scores measure the forest's derivation encoding: compaction folds
    finished subtrees into leaves and turns pairs into maps, and a map
    keeps its child's score.  So a "size" score is not a node count and a
    "depth" score is not a height — only their order is a contract.
    """

    @pytest.mark.parametrize(
        "cell_id, generator, size",
        [
            ("catalan", "catalan_tokens", 9),
            ("binary-sum", "ambiguous_sum_tokens", 8),
            ("dangling-else", "dangling_else_tokens", 10),
        ],
    )
    @pytest.mark.parametrize("ranking", ["size", "depth"])
    def test_ranked_trees_are_distinct_valid_derivations_best_first(
        self, cell_id, generator, size, ranking
    ):
        from repro import workloads
        from repro.bench.registry import CELLS_BY_ID

        spec = CELLS_BY_ID[cell_id].grammar
        grammar = spec.factory()
        tokens = getattr(workloads, generator)(size)
        query = ForestQuery(DerivativeParser(grammar).parse_forest(tokens), ranking)
        ranked = list(query.iter_ranked(16))
        scores = [score for score, _tree in ranked]
        trees = [tree for _score, tree in ranked]
        assert query.count == spec.forest_count(tokens)
        assert len(ranked) == min(16, query.count)
        assert scores == sorted(scores)
        assert len({repr(tree) for tree in trees}) == len(trees)
        assert all(is_derivation(grammar, tree, tokens) for tree in trees)
        assert all(is_derivation(grammar, tree, tokens) for tree in query.sample_n(3, 8))


# ---------------------------------------------------------------------------
# exact uniform sampling
# ---------------------------------------------------------------------------
class TestSampling:
    def test_samples_come_from_the_forest(self):
        forest = catalan_forest(5)
        trees = {repr(t) for t in iter_trees(forest)}
        for tree in sample_trees(forest, rng=3, n=50):
            assert repr(tree) in trees

    def test_same_seed_replays_identically(self):
        forest = catalan_forest(6)
        assert sample_trees(forest, rng=11, n=20) == sample_trees(forest, rng=11, n=20)

    def test_int_seed_equals_random_instance(self):
        forest = catalan_forest(5)
        assert sample_trees(forest, rng=7, n=10) == sample_trees(
            forest, rng=random.Random(7), n=10
        )

    def test_bool_seed_rejected(self):
        with pytest.raises(TypeError):
            sample_trees(catalan_forest(3), rng=True, n=1)

    def test_uniform_over_derivations(self):
        # Catalan(4) = 14 equally likely bracketings; 2800 draws with a
        # fixed seed (deterministic forever) land each within 5 sigma.
        forest = catalan_forest(5)
        draws = sample_trees(forest, rng=0, n=2800)
        frequencies = {}
        for tree in draws:
            frequencies[repr(tree)] = frequencies.get(repr(tree), 0) + 1
        assert len(frequencies) == 14
        expected = 2800 / 14
        tolerance = 5 * math.sqrt(expected)
        for key, seen in frequencies.items():
            assert abs(seen - expected) <= tolerance, (key, seen)

    def test_empty_forest_raises_diagnostic(self):
        with pytest.raises(EmptyForestError, match="no finite trees"):
            ForestQuery(FOREST_EMPTY).sample(0)

    def test_cyclic_forest_refuses_sampling(self):
        with pytest.raises(ValueError, match="cyclic"):
            ForestQuery(make_cycle()).sample(0)

    def test_astronomical_sampling_without_enumeration(self):
        query = ForestQuery(catalan_forest(41))
        draws = query.sample_n(5, 10)
        assert len(draws) == 10
        assert query.sample_n(5, 10) == draws

    def test_sample_n_validates(self):
        query = ForestQuery(catalan_forest(3))
        with pytest.raises(ValueError):
            query.sample_n(0, -1)
        assert query.sample_n(0, 0) == []


# ---------------------------------------------------------------------------
# fingerprint-based amb dedup (the old quadratic scan's replacement)
# ---------------------------------------------------------------------------
class TestFingerprintDedup:
    def test_fingerprint_stable_and_discriminating(self):
        a = ("x", ("y", "z"))
        assert tree_fingerprint(a) == tree_fingerprint(("x", ("y", "z")))
        assert tree_fingerprint(a) != tree_fingerprint(("x", ("y", "w")))

    def test_unhashable_trees_fingerprint_to_none(self):
        assert tree_fingerprint(["mutable"]) is None

    def test_dedup_results_unchanged_on_wide_amb(self):
        # Same-results regression for the fingerprint-set rewrite: a wide
        # ambiguity node with interleaved duplicates yields each distinct
        # tree exactly once, in first-seen order.
        leaves = [ForestLeaf(("t{}".format(i % 7),)) for i in range(100)]
        forest = ForestAmb(leaves)
        assert list(iter_trees(forest)) == ["t{}".format(i) for i in range(7)]
        assert exact_count(forest) == 100

    def test_dedup_handles_unhashable_trees(self):
        # Unhashable trees (fingerprint None) share one bucket and fall
        # back to structural equality — duplicates still collapse.
        forest = ForestAmb(
            [ForestLeaf((["u"],)), ForestLeaf((["u"],)), ForestLeaf((["v"],))]
        )
        assert list(iter_trees(forest)) == [["u"], ["v"]]

    def test_shared_subtrees_memoized(self):
        shared = ("s", "t")
        tree = (shared, shared)
        assert tree_fingerprint(tree) == tree_fingerprint((("s", "t"), ("s", "t")))

    def test_memo_shared_across_calls_pins_its_tuples(self):
        memo = {}
        inner = ("x", ("y", "z"))
        first = tree_fingerprint((inner, "a"), memo)
        assert memo[id(inner)][0] is inner
        assert first == tree_fingerprint((("x", ("y", "z")), "a"))
        assert tree_fingerprint((inner, "b"), memo) == tree_fingerprint((inner, "b"))


# ---------------------------------------------------------------------------
# empty-forest diagnostics (first_tree / parse alignment)
# ---------------------------------------------------------------------------
class TestEmptyForestDiagnostics:
    def test_first_tree_raises_typed_diagnostic(self):
        with pytest.raises(EmptyForestError) as excinfo:
            first_tree(FOREST_EMPTY)
        assert "no finite trees" in str(excinfo.value)
        assert isinstance(excinfo.value, ParseError)
        assert isinstance(excinfo.value, ValueError)

    def test_first_tree_still_catchable_as_value_error(self):
        # Long-standing call sites catch ValueError; the typed error must
        # keep satisfying them.
        with pytest.raises(ValueError):
            first_tree(FOREST_EMPTY)

    def test_sample_and_first_tree_agree_on_the_message(self):
        with pytest.raises(EmptyForestError) as from_first:
            first_tree(FOREST_EMPTY)
        with pytest.raises(EmptyForestError) as from_sample:
            ForestQuery(FOREST_EMPTY).sample(0)
        assert str(from_first.value) == str(from_sample.value)


# ---------------------------------------------------------------------------
# property tests: random forests vs a reference enumerator
# ---------------------------------------------------------------------------
def reference_trees(forest):
    """Every derivation's tree, in derivation order, by plain recursion.

    An oracle independent of ``ForestQuery``: an ambiguity node's
    alternatives in turn, a pair's left trees outermost, and a derivation
    cut where it reaches a node already on its own root path.  Repeats are
    kept.  Recursion is fine on the small forests these tests build.
    """

    def walk(node, path):
        if id(node) in path:
            return
        path = path | {id(node)}
        if isinstance(node, ForestLeaf):
            yield from node.trees
        elif isinstance(node, ForestRef) and node.target is not None:
            yield from walk(node.target, path)
        elif isinstance(node, ForestMap):
            for tree in walk(node.child, path):
                yield node.fn(tree)
        elif isinstance(node, ForestAmb):
            for alternative in node.alternatives:
                yield from walk(alternative, path)
        elif isinstance(node, ForestPair):
            for left in walk(node.left, path):
                for right in walk(node.right, path):
                    yield (left, right)

    return list(walk(forest, frozenset()))


def _distinct(trees):
    return list(dict.fromkeys(trees))


def _specs(with_map=True, with_empty=False, with_back=False):
    """Strategy for small forest *specs* built into forests at test time.

    ``("back", k)`` is a reference to the ``k``-th enclosing composite
    node (modulo the depth) — a cycle; with no enclosing node it stays
    unresolved, an empty forest.
    """
    leaf = st.tuples(st.just("leaf"), st.integers(min_value=1, max_value=3))
    base = [leaf]
    if with_empty:
        base.append(st.just(("empty",)))
    if with_back:
        base.append(st.tuples(st.just("back"), st.integers(min_value=0, max_value=3)))

    def extend(children):
        branches = [
            st.tuples(st.just("pair"), children, children),
            st.tuples(
                st.just("amb"), st.lists(children, min_size=1, max_size=3)
            ),
        ]
        if with_map:
            branches.append(st.tuples(st.just("map"), children))
        return st.one_of(*branches)

    return st.recursive(st.one_of(*base), extend, max_leaves=8)


def _build(spec, labels, path=()):
    """Instantiate a spec; leaf trees are named ``t<next(labels)>``.

    ``path`` holds, per enclosing composite node, the back references
    waiting for that node to exist.
    """
    kind = spec[0]
    if kind == "empty":
        return FOREST_EMPTY
    if kind == "leaf":
        trees = tuple("t{}".format(next(labels)) for _ in range(spec[1]))
        return ForestLeaf(trees)
    if kind == "back":
        ref = ForestRef()
        if path:
            path[-1 - spec[1] % len(path)].append(ref)
        return ref
    waiting = []
    path = path + (waiting,)
    if kind == "pair":
        node = ForestPair(_build(spec[1], labels, path), _build(spec[2], labels, path))
    elif kind == "amb":
        node = ForestAmb([_build(child, labels, path) for child in spec[1]])
    elif kind == "map":
        node = ForestMap(lambda t: ("m", t), _build(spec[1], labels, path))
    else:
        raise AssertionError(spec)
    for ref in waiting:
        ref.target = node
    return node


def _built(spec, labels=None):
    """Build with globally unique leaf labels (no repeated trees) by default."""
    return _build(spec, itertools.count() if labels is None else labels)


@given(spec=_specs(with_empty=True))
@settings(max_examples=60, deadline=None)
def test_property_count_equals_enumeration(spec):
    # Unique leaves + injective maps → every derivation is a distinct
    # tree, so the derivation count equals the reference's length exactly.
    forest = _built(spec)
    count = exact_count(forest)
    assert type(count) is int
    assert count == len(reference_trees(forest))


@given(spec=_specs(with_empty=True))
@settings(max_examples=60, deadline=None)
def test_property_acyclic_trees_are_the_reference_without_repeats(spec):
    # Two labels for every leaf: many derivations build equal trees.
    forest = _built(spec, itertools.cycle((0, 1)))
    reference = reference_trees(forest)
    assert list(iter_trees(forest)) == _distinct(reference)
    assert list(iter_trees(forest, limit=2)) == _distinct(reference)[:2]
    if reference:
        assert first_tree(forest) == reference[0]
    else:
        with pytest.raises(EmptyForestError):
            first_tree(forest)


@given(spec=_specs(with_empty=True, with_back=True))
@settings(max_examples=100, deadline=None)
def test_property_cyclic_trees_are_a_subset_of_the_reference(spec):
    forest = _built(spec, itertools.cycle((0, 1, 2)))
    reference = reference_trees(forest)
    trees = list(iter_trees(forest))
    assert set(trees) <= set(reference)
    assert len(set(trees)) == len(trees)
    assert bool(trees) == bool(reference)
    assert (count_trees(forest) == 0) == (not reference)
    if reference:
        assert first_tree(forest) == trees[0]
    else:
        with pytest.raises(EmptyForestError):
            first_tree(forest)


@given(spec=_specs(), k=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_property_top_k_is_prefix_of_exhaustive(spec, k):
    forest = _built(spec)
    full = list(ForestQuery(forest, "size").iter_ranked())
    top = list(ForestQuery(forest, "size").iter_ranked(k))
    assert top == full[:k]
    scores = [score for score, _tree in full]
    assert scores == sorted(scores)


@given(spec=_specs(with_map=False), k=st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_property_top_k_agrees_with_sorted_enumeration(spec, k):
    # Map-free forests: a derivation's size score IS its tree's size, so
    # the ranked score stream must equal the sorted reference scores.
    forest = _built(spec)
    reference = sorted(_tree_size(tree) for tree in reference_trees(forest))
    ranked = [score for score, _tree in ForestQuery(forest, "size").iter_ranked(k)]
    assert ranked == reference[:k]


@given(spec=_specs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_property_sampling_membership_and_replay(spec, seed):
    forest = _built(spec)
    query = ForestQuery(forest)
    trees = set(reference_trees(forest))
    draws = query.sample_n(seed, 8)
    assert query.sample_n(seed, 8) == draws
    for tree in draws:
        assert tree in trees


@given(spec=_specs(with_map=False))
@settings(max_examples=20, deadline=None)
def test_property_sampling_matches_enumeration_frequencies(spec):
    # Exact uniformity over derivations: with unique leaves every
    # derivation is a distinct tree, so frequencies under a fixed seed
    # (deterministic forever) must track 1/count within 5 sigma.
    forest = _built(spec)
    count = exact_count(forest)
    trees = reference_trees(forest)
    if count < 2 or count > 12:
        return
    n = 120 * count
    draws = ForestQuery(forest).sample_n(0, n)
    frequencies = {}
    for tree in draws:
        frequencies[tree] = frequencies.get(tree, 0) + 1
    expected = n / count
    tolerance = 5 * math.sqrt(expected) + 1
    assert set(frequencies) <= set(trees)
    for tree in trees:
        assert abs(frequencies.get(tree, 0) - expected) <= tolerance, tree
