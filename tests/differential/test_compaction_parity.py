"""Differential tests: compaction must never change what a parse means.

The smart constructors rewrite the derivative graph as they build it.  These
tests build *twin* grammars from one pure-data spec — one parsed with the
default parser, one with ``compaction=False`` (the plain node constructors)
— and assert the two engines agree on everything the rewrite rules promise
to keep: recognition, the failure position, whether the forest is
infinitely ambiguous and, when it is finite, the set of distinct trees.
Cyclic grammars come from hypothesis, with ε leaves carrying either the
unit tree or a payload so that a wrongly merged ε shows in the trees; the
evaluation grammars run on valid and corrupted streams.

A third property needs no twin: each engine cuts its grammar's own dead
branches once, when it is built, and every derive step settles what it
built, so a prune pass run after any step, on the interpreted parser or the
compiled table, finds no dead branch left to cut.

Two things are deliberately *not* compared.  On an infinite forest the two
graphs walk different finite cores, so their first few trees differ: on
``S = (a | S)(ε | S)`` with input ``aaaaaa`` each parser yields its own
sample of an infinite set.  And derivation counts differ where the paper's
``ε_s1 ∪ ε_s2 ⇒ ε_{s1 ∪ s2}`` rule merges equal trees: ``ε ∪ ε`` counts 1
compacted and 2 uncompacted, over the same single tree.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compile.automaton import GrammarTable
from repro.core import (
    EMPTY,
    DerivativeParser,
    ParseError,
    Ref,
    epsilon,
    token,
)
from repro.core.forest import count_trees, iter_trees
from repro.core.languages import Alt, Cat
from repro.core.prune import prune_empty
from repro.grammars import arithmetic_grammar, binary_sum_grammar, pl0_grammar
from repro.lexer.tokens import Tok
from repro.workloads import ambiguous_sum_tokens, arithmetic_tokens, pl0_tokens


def twins(build):
    """The default parser and the uncompacted one, each over its own graph."""
    return DerivativeParser(build()), DerivativeParser(build(), compaction=False)


def observable(parser, tokens):
    """Recognition, then the failure position or the forest's meaning."""
    if not parser.recognize(tokens):
        try:
            parser.parse(tokens)
        except ParseError as error:
            return (False, error.position)
        raise AssertionError("parse() succeeded on an unrecognized input")
    forest = parser.parse_forest(tokens)
    if count_trees(forest) == math.inf:
        return (True, "infinite")
    return (True, frozenset(iter_trees(forest)))


# ---------------------------------------------------------------------------
# Random cyclic grammars from pure-data specs (buildable twice, identically)
# ---------------------------------------------------------------------------
def build_grammar(spec):
    refs = [Ref("N{}".format(index)) for index in range(len(spec))]

    def build(expr):
        if expr == "eps":
            return epsilon(())
        if expr == "eps-x":
            return epsilon("x")
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


def expression_strategy(n_refs):
    leaves = st.sampled_from(["a", "b", "eps", "eps-x", "empty"]) | st.tuples(
        st.just("ref"), st.integers(0, n_refs - 1)
    )
    return st.recursive(
        leaves,
        lambda inner: st.tuples(st.sampled_from(["alt", "cat"]), inner, inner),
        max_leaves=8,
    )


@st.composite
def grammar_and_inputs(draw):
    n_refs = draw(st.integers(1, 3))
    spec = [draw(expression_strategy(n_refs)) for _ in range(n_refs)]
    inputs = draw(
        st.lists(st.text(alphabet="ab", max_size=6), min_size=1, max_size=4)
    )
    return spec, inputs


@settings(max_examples=100, deadline=None)
@given(grammar_and_inputs())
def test_compaction_never_changes_results_on_random_grammars(case):
    spec, inputs = case
    compacted, plain = twins(lambda: build_grammar(spec))
    for text in inputs:
        tokens = list(text)
        assert observable(compacted, tokens) == observable(plain, tokens), (
            "compaction changed the result on {!r} for spec {!r}".format(text, spec)
        )


@settings(max_examples=100, deadline=None)
@given(grammar_and_inputs())
# A grammar node with a dead branch sits under the first step's derivative.
@example(([("cat", "a", ("alt", "b", ("ref", 1))), ("cat", "a", ("ref", 1))], ["ab"]))
def test_prune_finds_nothing_after_any_step(case):
    """Each engine cuts its grammar's own dead branches when it is built,
    and each derive step cuts the dead branches it builds, so a prune pass
    after every step rewrites no child and keeps the root: on the
    interpreted parser's states and on the table's ``step_slow``
    successors.
    """
    spec, inputs = case
    parser = DerivativeParser(build_grammar(spec))
    table = GrammarTable(build_grammar(spec))
    for text in inputs:
        state = parser.start()
        automaton_state = table.start
        for tok in text:
            state.feed(tok)
            automaton_state = table.step_slow(automaton_state, tok)
            assert state.failed is automaton_state.dead, (spec, text)
            if state.failed:
                break
            for language, metrics, nullability in (
                (state.language, parser.metrics, parser.nullability),
                (automaton_state.language, table.metrics, table.nullability),
            ):
                before = metrics.compaction_rewrites
                root, _live = prune_empty(language, nullability)
                assert root is language, (spec, text)
                assert metrics.compaction_rewrites == before, (spec, text)


@pytest.mark.parametrize(
    "spec, text",
    [
        # Infinite forest: the twins' first trees differ, their verdict not.
        ([("cat", ("alt", "a", ("ref", 0)), ("alt", "eps", ("ref", 0)))], "aaaaaa"),
        # ε ∪ ε: one derivation compacted, two uncompacted, one tree in both.
        ([("alt", "eps", "eps")], ""),
        # D_a(a ∪ a ◦ ε_x) = ε_a ∪ ε_(a,x): the merged ε keeps both trees.
        ([("alt", "a", ("cat", "a", "eps-x"))], "a"),
    ],
    ids=["infinite-forest", "merged-epsilons", "distinct-epsilons"],
)
def test_compaction_parity_on_pinned_cases(spec, text):
    compacted, plain = twins(lambda: build_grammar(spec))
    assert observable(compacted, list(text)) == observable(plain, list(text))


# ---------------------------------------------------------------------------
# Evaluation grammars, valid + corrupted streams
# ---------------------------------------------------------------------------
def corrupted(tokens, seed):
    rng = random.Random(seed)
    streams = [tokens]
    if tokens:
        streams.append(tokens[:-1])
        streams.append(tokens[1:])
        position = rng.randrange(len(tokens))
        streams.append(tokens[:position] + [Tok("@")] + tokens[position:])
        position = rng.randrange(len(tokens))
        streams.append(tokens[:position] + [Tok("@")] + tokens[position + 1 :])
    return streams


@pytest.mark.parametrize(
    "grammar_fn,stream_fn",
    [
        (arithmetic_grammar, lambda seed: arithmetic_tokens(30, seed=seed)),
        (pl0_grammar, lambda seed: pl0_tokens(20, seed=seed)),
        (binary_sum_grammar, lambda seed: ambiguous_sum_tokens(3 + seed)),
    ],
    ids=["arithmetic", "pl0", "binary-sum"],
)
@pytest.mark.parametrize("seed", range(3))
def test_compaction_agrees_on_evaluation_grammars(grammar_fn, stream_fn, seed):
    compacted, plain = twins(lambda: grammar_fn().to_language())
    for stream in corrupted(stream_fn(seed), seed):
        assert observable(compacted, stream) == observable(plain, stream)
