"""Tests for the unified fixed-point analysis kernel (repro.core.fixpoint).

The load-bearing property, checked with hypothesis over randomly generated
*cyclic* grammars: the dependency-tracked worklist solver computes exactly
the same least fixed point as naive whole-graph iteration-to-convergence
(the textbook algorithm the kernel replaces), for the one node state that
holds both nullability and productivity, and the classical CFG analyses
match their hand-rolled ``while changed`` predecessors.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    EMPTY,
    Compactor,
    DerivativeParser,
    FixpointAnalysis,
    FixpointSolver,
    Metrics,
    NullabilityAnalyzer,
    Ref,
    epsilon,
    reachable_nodes,
    token,
)
from repro.core.languages import Alt, Cat, Delta, Empty, Epsilon, Language, Reduce, Token
from repro.core.nullability import DEAD, LIVE, NULLABLE
from repro.core.prune import live_nodes, prune_empty


# ---------------------------------------------------------------------------
# Naive whole-graph iteration-to-convergence references (the algorithms the
# kernel replaces; deliberately simple and obviously correct).
# ---------------------------------------------------------------------------
def naive_nullable(root: Language):
    nodes = reachable_nodes(root)
    value = {id(node): False for node in nodes}

    def evaluate(node):
        if isinstance(node, Epsilon):
            return True
        if isinstance(node, (Empty, Token)):
            return False
        if isinstance(node, Alt):
            return value[id(node.left)] or value[id(node.right)]
        if isinstance(node, Cat):
            return value[id(node.left)] and value[id(node.right)]
        if isinstance(node, (Reduce, Delta)):
            return value[id(node.lang)]
        return value[id(node.target)]  # Ref

    changed = True
    while changed:
        changed = False
        for node in nodes:
            if not value[id(node)] and evaluate(node):
                value[id(node)] = True
                changed = True
    return {id(node): value[id(node)] for node in nodes}


def naive_productive(root: Language, nullable_of):
    nodes = reachable_nodes(root)
    value = {id(node): False for node in nodes}

    def evaluate(node):
        if isinstance(node, (Epsilon, Token)):
            return True
        if isinstance(node, Empty):
            return False
        if isinstance(node, Delta):
            return nullable_of[id(node.lang)]
        if isinstance(node, Alt):
            return value[id(node.left)] or value[id(node.right)]
        if isinstance(node, Cat):
            return value[id(node.left)] and value[id(node.right)]
        if isinstance(node, Reduce):
            return value[id(node.lang)]
        return value[id(node.target)]  # Ref

    changed = True
    while changed:
        changed = False
        for node in nodes:
            if not value[id(node)] and evaluate(node):
                value[id(node)] = True
                changed = True
    return value


# ---------------------------------------------------------------------------
# Random cyclic grammars: n mutually recursive non-terminals whose bodies are
# random expressions over tokens, ε, ∅ and references to any non-terminal.
# ---------------------------------------------------------------------------
def build_grammar(spec):
    """Build a (possibly cyclic) grammar graph from a pure-data spec.

    ``spec`` is a list of body expressions, one per non-terminal; an
    expression is a nested tuple ('alt'|'cat', a, b), ('ref', i), or one of
    the leaves 'a', 'b', 'eps', 'empty'.  Building from data keeps the
    construction reproducible, so tests can build identical twins.
    """
    refs = [Ref("N{}".format(index)) for index in range(len(spec))]

    def build(expr):
        if expr == "eps":
            return epsilon(())
        if expr == "empty":
            return EMPTY
        if expr in ("a", "b"):
            return token(expr)
        kind = expr[0]
        if kind == "ref":
            return refs[expr[1]]
        if kind == "alt":
            return Alt(build(expr[1]), build(expr[2]))
        return Cat(build(expr[1]), build(expr[2]))  # 'cat'

    for ref, body in zip(refs, spec):
        ref.set(build(body))
    return refs[0]


def expression_strategy(n_refs, depth=3):
    leaves = st.sampled_from(["a", "b", "eps", "empty"]) | st.tuples(
        st.just("ref"), st.integers(0, n_refs - 1)
    )
    return st.recursive(
        leaves,
        lambda inner: st.tuples(st.sampled_from(["alt", "cat"]), inner, inner),
        max_leaves=8,
    )


@st.composite
def grammar_spec(draw):
    n_refs = draw(st.integers(1, 4))
    return [draw(expression_strategy(n_refs)) for _ in range(n_refs)]


# ---------------------------------------------------------------------------
# Kernel vs naive iteration
# ---------------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(grammar_spec())
def test_kernel_nullability_matches_naive_iteration(spec):
    root = build_grammar(spec)
    expected = naive_nullable(root)
    analyzer = NullabilityAnalyzer()
    for node in reachable_nodes(root):
        assert analyzer.nullable(node) is expected[id(node)], (
            "kernel and naive nullability disagree on {!r}".format(node)
        )


@settings(max_examples=120, deadline=None)
@given(grammar_spec())
def test_kernel_productivity_matches_naive_iteration(spec):
    # One solve of the DEAD < LIVE < NULLABLE chain answers both classical
    # analyses: productivity is the state's `!= DEAD` projection.
    root = build_grammar(spec)
    expected_nullable = naive_nullable(root)
    expected = naive_productive(root, expected_nullable)
    analyzer = NullabilityAnalyzer()
    for node in reachable_nodes(root):
        assert analyzer.productive(node) is expected[id(node)], (
            "kernel and naive productivity disagree on {!r}".format(node)
        )


@settings(max_examples=60, deadline=None)
@given(grammar_spec())
def test_final_promotion_marks_every_covered_node(spec):
    root = build_grammar(spec)
    analyzer = NullabilityAnalyzer()
    analyzer.nullable(root)
    for node in reachable_nodes(root):
        assert node.state in (DEAD, LIVE, NULLABLE)
    # A second query answers from the promoted finals without a new solve.
    fixed_points_before = analyzer.metrics.nullable_fixed_points
    analyzer.nullable(root)
    assert analyzer.metrics.nullable_fixed_points == fixed_points_before


def assert_settled_at_the_naive_fixed_point(root):
    expected_nullable = naive_nullable(root)
    expected_productive = naive_productive(root, expected_nullable)
    for node in reachable_nodes(root):
        assert node.state in (DEAD, LIVE, NULLABLE), node
        assert (node.state == NULLABLE) is expected_nullable[id(node)], node
        assert (node.state != DEAD) is expected_productive[id(node)], node


@settings(max_examples=120, deadline=None)
@given(grammar_spec(), st.lists(st.sampled_from(["a", "b"]), max_size=4))
def test_settled_states_equal_the_naive_fixed_point(spec, word):
    # Construction settles the grammar, and each derive step settles what
    # it built (at birth or in its step-end solve), so after either every
    # reachable node holds a final state, and that state is the least
    # fixed point.
    state = DerivativeParser(build_grammar(spec)).start()
    assert_settled_at_the_naive_fixed_point(state.language)
    for tok in word:
        state.feed(tok)
        assert_settled_at_the_naive_fixed_point(state.language)


def test_prune_empty_decides_nodes_below_a_settled_one():
    live = Ref("L")
    live.set(Alt(Cat(token("x"), live), token("x")))
    dead = Ref("D")
    dead.set(Cat(token("x"), dead))
    root = Compactor().make_alt(epsilon(()), Alt(live, dead))
    assert root.state == NULLABLE
    assert live.state is None and dead.state is None
    prune_empty(root)
    for node in live_nodes(root):
        assert node.state is not None
    assert live.state == LIVE
    assert dead.state == DEAD


def test_smart_constructors_settle_over_final_children():
    compactor = Compactor()
    a = token("a")
    nullable_alt = compactor.make_alt(a, epsilon(()))
    assert nullable_alt.state == NULLABLE
    cat = compactor.make_cat(a, nullable_alt)
    assert cat.state == LIVE
    delta = compactor.make_delta(cat)
    assert delta.state == DEAD
    # An undecided child leaves the state undecided unless the other side
    # already decides it, and the raw constructors never settle.
    pending = Ref("P")
    log = compactor.undecided
    log.clear()
    undecided = compactor.make_cat(pending, nullable_alt)
    assert undecided.state is None
    assert compactor.make_alt(pending, nullable_alt).state == NULLABLE
    # a ◦ P is not nullable whatever P is, but one state cannot say so
    # without also saying whether it is empty: it waits for the step's
    # solve, like every node over an undecided child.
    assert compactor.make_cat(a, pending).state is None
    assert compactor.make_cat(pending, EMPTY).state == DEAD
    assert len(log) == 4
    assert Alt(a, epsilon(())).state is None


# ---------------------------------------------------------------------------
# Kernel mechanics
# ---------------------------------------------------------------------------
class _Doubling(FixpointAnalysis):
    """A tiny integer-lattice analysis over an explicit edge list."""

    def __init__(self, edges, seeds):
        self.edges = edges
        self.seeds = seeds

    def bottom(self, node):
        return 0

    def dependencies(self, node):
        return self.edges.get(node, ())

    def transfer(self, node, get):
        return max(
            [self.seeds.get(node, 0)] + [get(child) for child in self.edges.get(node, ())]
        )


def test_solver_handles_multiple_roots_and_returns_value_table():
    edges = {"x": ["y"], "y": ["z"], "z": [], "w": ["x"]}
    solver = FixpointSolver(_Doubling(edges, {"z": 7}))
    values = solver.solve(["w", "x"])
    assert values == {"w": 7, "x": 7, "y": 7, "z": 7}


def test_solver_counts_evaluations_into_metrics():
    metrics = Metrics()
    edges = {"x": ["y"], "y": []}
    solver = FixpointSolver(_Doubling(edges, {"y": 1}), metrics)
    solver.solve(["x"])
    assert metrics.fixpoint_node_evaluations >= 2
    assert metrics.fixpoint_solves == 1


def test_nullable_calls_flow_through_kernel_counter():
    # The Figure 7 counter and the kernel counter are views of the same
    # evaluations: for a parser that only runs nullability, they coincide.
    left = Ref("L")
    left.set(Alt(Cat(token("a"), left), epsilon(())))
    analyzer = NullabilityAnalyzer()
    assert analyzer.nullable(left)
    assert analyzer.metrics.nullable_calls == analyzer.metrics.fixpoint_node_evaluations
    assert analyzer.metrics.nullable_calls > 0
