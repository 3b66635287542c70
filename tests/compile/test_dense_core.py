"""Property + concurrency tests for the compiled table's edge-dict walk.

The hot loop chases each state's linked edge dict and calls ``step_slow``
only on a miss; it must be interchangeable with a walk that calls
``step_slow`` for every token and never reads an edge dict.  These tests
drive randomly generated grammars × randomly generated token streams
through both walks — on kind-pure, kind-impure (predicate terminal) and
``max_states``-capped tables — and assert they agree on acceptance *and* on
the structural failure position, and that every consumed token is counted
once as an edge hit or a fallback.  Then they hammer one cold shared table
from eight threads to exercise concurrent edge linking and repacking.
"""

import threading

import pytest

from repro.compile import CompiledParser, GrammarTable
from repro.compile.automaton import STATE
from repro.core import DerivativeParser, Ref, epsilon, token
from repro.core.languages import Token
from repro.grammars import arithmetic_grammar, pl0_grammar
from repro.lexer.tokens import Tok
from repro.workloads import pl0_tokens

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


# ---------------------------------------------------------------------------
# Random grammars over a tiny kind alphabet, built from the combinators the
# engines share.  Star rides a Ref so recursion (the automaton's interesting
# case) is always on the menu.
_KINDS = ["a", "b", "c"]


def _star(inner):
    loop = Ref("R")
    loop.set((inner + loop) | epsilon())
    return loop


def _build(shape):
    if isinstance(shape, str):
        return token(shape)
    op, parts = shape
    if op == "seq":
        left, right = (_build(part) for part in parts)
        return left + right
    if op == "alt":
        left, right = (_build(part) for part in parts)
        return left | right
    return _star(_build(parts))


_SHAPES = st.recursive(
    st.sampled_from(_KINDS),
    lambda children: st.one_of(
        st.tuples(st.just("seq"), st.tuples(children, children)),
        st.tuples(st.just("alt"), st.tuples(children, children)),
        st.tuples(st.just("star"), children),
    ),
    max_leaves=8,
)

_STREAMS = st.lists(
    st.sampled_from(_KINDS + ["z"]).map(lambda kind: Tok(kind, kind)),
    max_size=20,
)


#: Table variants: kind-pure, kind-impure (a predicate terminal makes every
#: state classify tokens by value, so no state gets edges) and capped at two
#: interned states (the rest of a walk runs on transient states).
_VARIANTS = ("pure", "impure", "capped")


def _language(shape, variant):
    language = _build(shape)
    if variant == "impure":
        return language | Token(predicate=lambda tok: tok.value == "z", label="z?")
    return language


def _step_slow_run(table, stream):
    """Acceptance + structural failure position via ``step_slow`` alone."""
    state = table.start
    for position, tok in enumerate(stream):
        state = table.step_slow(state, tok)
        if state.dead:
            return False, position
    return state.accepting, None


def _consumed(stream, failure):
    return len(stream) if failure is None else failure + 1


def _edge_run(parser, stream):
    """Acceptance + structural failure position through the edge probes."""
    state = parser.start()
    state.feed_all(stream)
    accepted, hits, fallbacks = parser.recognize_with_stats(stream)  # batch loop
    if not state.failed:
        assert accepted == state.accepts()
    assert hits + fallbacks == _consumed(stream, state.failure_position)
    return accepted, state.failure_position


@settings(max_examples=90, deadline=None)
@given(shape=_SHAPES, stream=_STREAMS, variant=st.sampled_from(_VARIANTS))
def test_edge_walk_matches_step_slow_on_random_grammars(shape, stream, variant):
    table = GrammarTable(
        _language(shape, variant), max_states=2 if variant == "capped" else None
    )
    assert table.pure is (variant != "impure")
    parser = CompiledParser(table=table)
    expected = DerivativeParser(_language(shape, variant)).recognize(stream)
    edge_accepted, edge_failure = _edge_run(parser, stream)
    slow_accepted, slow_failure = _step_slow_run(table, stream)
    assert edge_accepted is expected
    assert slow_accepted is expected
    assert edge_failure == slow_failure
    # A second, fully warm run must not flip anything, and counts every
    # consumed token exactly once.
    accepted, hits, fallbacks = parser.recognize_with_stats(stream)
    assert accepted is expected
    assert hits + fallbacks == _consumed(stream, edge_failure)
    if variant == "impure":
        assert hits == 0


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(st.sampled_from(["+", "*", "(", ")", "NUMBER", "NAME", "@"]).map(
    lambda kind: Tok(kind, kind)
), max_size=25))
def test_edge_walk_failure_positions_match_step_slow_on_arithmetic(stream):
    table = GrammarTable(arithmetic_grammar().language())
    parser = CompiledParser(table=table)
    edge_accepted, edge_failure = _edge_run(parser, stream)
    slow_accepted, slow_failure = _step_slow_run(table, stream)
    assert edge_accepted == slow_accepted
    assert edge_failure == slow_failure


# ---------------------------------------------------------------------------
# Concurrency: eight threads warm one cold table at once.


def test_eight_threads_promote_one_cold_table():
    table = GrammarTable(pl0_grammar().language())
    parser = CompiledParser(table=table)
    streams = [pl0_tokens(120 + 17 * worker, seed=worker) for worker in range(8)]
    expected = [DerivativeParser(pl0_grammar().to_language()).recognize(s) for s in streams]
    barrier = threading.Barrier(8)
    results = [None] * 8
    errors = []

    def run(worker):
        try:
            barrier.wait()
            for _ in range(3):  # cold, repacked, warm
                results[worker] = parser.recognize(streams[worker])
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert results == expected
    stats = table.stats()
    assert all(state.edges[STATE] is state for state in table.states())
    assert stats["dense_hits"] > 0
    # Fully warm now: one more pass over every stream is all dense hits.
    for stream, want in zip(streams, expected):
        accepted, hits, fallbacks = parser.recognize_with_stats(stream)
        assert accepted is want
        assert fallbacks == 0
        assert hits == len(stream)
