"""Registry-derived differential coverage: every zoo cell, every gate.

The grammar zoo (:mod:`repro.bench.registry`) declares, per cell, which
engines run a grammar × workload pairing and which gates it must pass.
This suite *derives* its parameterization from that declaration, so adding
a grammar to the zoo automatically buys it:

* recognition + failure-position parity across the cell's engines, on
  valid and corrupted streams (``differential`` gate),
* identical parse trees across the tree-capable engines (``trees`` gate),
* closed-form forest counts, cross-checked between ``count_trees`` and
  ``iter_trees`` enumeration (``ambiguity`` gate),
* forest-query agreement — exact integer counts, ranked extraction
  matching plain enumeration, replayable sampling (``forest`` gate),
* serialization round-trips (``serialization``), dense-core agreement
  (``dense``), incremental-edit convergence (``incremental``) and worker
  pool parity (``pooled``).

A guard test fails if a zoo grammar is registered without differential
coverage — the matrix cannot grow silently unchecked cells.
"""

import random

import pytest

from repro.bench.registry import CELLS, cells_for_gate, zoo_grammar_ids
from repro.compile import CompiledParser, GrammarTable, load_table, save_table
from repro.core import DerivativeParser, ParseError
from repro.core.forest import count_trees, iter_trees
from repro.earley import EarleyParser
from repro.glr import GLRParser
from repro.incremental import IncrementalDocument
from repro.lexer.tokens import Tok

_CELL_ID = lambda cell: cell.id  # noqa: E731 - stable pytest test IDs

#: Enumeration-based cross-checks only run below this forest size; bigger
#: forests (the astronomical cell) are checked by count/rank/sample alone.
_ENUMERABLE = 10_000


def _quick_streams(cell, max_streams=2):
    """The cell's quick-mode streams, capped to keep the suite fast."""
    return cell.workload.streams(quick=True)[:max_streams]


def corrupted_streams(tokens, seed=0):
    """Truncate / insert / replace / duplicate mutations of a valid stream."""
    rng = random.Random(seed)
    streams = []
    if tokens:
        streams.append(tokens[:-1])
        streams.append(tokens[1:])
        position = rng.randrange(len(tokens))
        streams.append(tokens[:position] + [Tok("@")] + tokens[position:])
        position = rng.randrange(len(tokens))
        streams.append(tokens[:position] + [Tok("@")] + tokens[position + 1 :])
        streams.append(tokens + tokens[-1:])
    return streams


def mutated_streams(tokens, seed=0, count=3):
    """One-token mutations that stay inside the stream's own alphabet.

    Each replaces one token with a token of another kind drawn from the
    same stream, so the automaton walks real (shared) states up to the
    mutation instead of dying on an unknown kind at once.
    """
    rng = random.Random(seed)
    streams = []
    kinds = {token.kind for token in tokens}
    if len(kinds) < 2:
        return streams
    for _ in range(count):
        position = rng.randrange(len(tokens))
        others = [token for token in tokens if token.kind != tokens[position].kind]
        streams.append(tokens[:position] + [rng.choice(others)] + tokens[position + 1 :])
    return streams


def _failure_position(parser, stream):
    try:
        parser.parse(stream)
    except ParseError as error:
        return error.position
    return None


def _table_failure_position(parser, stream):
    """Where the compiled automaton itself fails (no fallback derivation):
    the token whose edge reached the dead sink, or the end of input."""
    state = parser.start()
    state.feed_all(stream)
    if state.failed:
        return state.failure_position
    return None if state.accepts() else len(stream)


# ---------------------------------------------------------------------------
# differential: recognition + failure positions across the cell's engines
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell", cells_for_gate("differential"), ids=_CELL_ID)
def test_registry_recognition_parity(cell):
    grammar = cell.grammar.factory()
    derivative = DerivativeParser(grammar.to_language())
    compiled = CompiledParser(grammar) if "compiled" in cell.engines else None
    earley = EarleyParser(grammar) if "earley" in cell.engines else None
    glr = GLRParser(grammar) if "glr" in cell.engines else None
    for size, seed, tokens in _quick_streams(cell):
        mutations = corrupted_streams(tokens, seed=seed) + mutated_streams(tokens, seed=seed)
        for stream in [tokens] + mutations:
            expected = derivative.recognize(stream)
            context = "cell {!r} size {} seed {}".format(cell.id, size, seed)
            if earley is not None:
                assert earley.recognize(stream) is expected, context
            if glr is not None:
                assert glr.recognize(stream) is expected, context
            if compiled is not None:
                assert compiled.recognize(stream) is expected, context
                # Warm transition-cache re-run must reproduce the verdict.
                assert compiled.recognize(stream) is expected, context


@pytest.mark.parametrize("cell", cells_for_gate("differential"), ids=_CELL_ID)
def test_registry_failure_position_parity(cell):
    grammar = cell.grammar.factory()
    derivative = DerivativeParser(grammar.to_language())
    compiled = CompiledParser(grammar) if "compiled" in cell.engines else None
    earley = EarleyParser(grammar) if "earley" in cell.engines else None
    size, seed, tokens = _quick_streams(cell, max_streams=1)[0]
    for stream in corrupted_streams(tokens, seed=seed) + mutated_streams(tokens, seed=seed):
        expected = _failure_position(derivative, stream)
        if earley is not None:
            assert _failure_position(earley, stream) == expected, (
                "cell {!r}: Earley failure position diverges on {!r}".format(
                    cell.id, stream
                )
            )
        if compiled is not None:
            assert _failure_position(compiled, stream) == expected, (
                "cell {!r}: compiled failure position diverges on {!r}".format(
                    cell.id, stream
                )
            )
            assert _table_failure_position(compiled, stream) == expected, (
                "cell {!r}: compiled automaton fails elsewhere on {!r}".format(
                    cell.id, stream
                )
            )


# ---------------------------------------------------------------------------
# trees: tree-capable engines agree exactly (unambiguous cells)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell", cells_for_gate("trees"), ids=_CELL_ID)
def test_registry_tree_parity(cell):
    assert not cell.grammar.ambiguous, (
        "trees gate is for unambiguous cells; use the ambiguity gate instead"
    )
    grammar = cell.grammar.factory()
    derivative = DerivativeParser(grammar.to_language())
    compiled = CompiledParser(grammar)
    earley = EarleyParser(grammar)
    for size, seed, tokens in _quick_streams(cell):
        reference = derivative.parse(tokens)
        context = "cell {!r} size {} seed {}".format(cell.id, size, seed)
        assert compiled.parse(tokens) == reference, context
        assert earley.parse(tokens) == reference, context


# ---------------------------------------------------------------------------
# ambiguity: closed-form counts, count_trees vs iter_trees cross-check
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell", cells_for_gate("ambiguity"), ids=_CELL_ID)
def test_registry_ambiguity_counts(cell):
    grammar = cell.grammar.factory()
    parser = DerivativeParser(grammar.to_language())
    for quick in (True, False):
        for size, seed, tokens in cell.workload.streams(quick=quick):
            forest = parser.parse_forest(tokens)
            expected = cell.grammar.forest_count(tokens)
            counted = count_trees(forest)
            assert type(counted) is int, (
                "cell {!r} size {}: count must be an exact int, got {}".format(
                    cell.id, size, type(counted).__name__
                )
            )
            assert counted == expected, (
                "cell {!r} size {}: count_trees says {}, closed form {}".format(
                    cell.id, size, counted, expected
                )
            )
            if expected > _ENUMERABLE:
                # Astronomically ambiguous streams cannot be enumerated;
                # the forest gate checks them without materialization.
                continue
            # Enumeration agrees with counting: exactly `expected` distinct
            # trees come out, and asking for one more finds nothing extra.
            enumerated = list(iter_trees(forest, limit=expected + 1))
            assert len(enumerated) == expected, (
                "cell {!r} size {}: enumerated {} trees, counted {}".format(
                    cell.id, size, len(enumerated), expected
                )
            )


# ---------------------------------------------------------------------------
# forest: the forest-query layer vs plain enumeration on every gated cell
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell", cells_for_gate("forest"), ids=_CELL_ID)
def test_registry_forest_queries(cell):
    from repro.core.forest_query import ForestQuery

    grammar = cell.grammar.factory()
    parser = DerivativeParser(grammar.to_language())
    for size, seed, tokens in cell.workload.streams(quick=True):
        forest = parser.parse_forest(tokens)
        expected = cell.grammar.forest_count(tokens)
        query = ForestQuery(forest, "size")
        context = "cell {!r} size {}".format(cell.id, size)
        assert type(query.count) is int and query.count == expected, context
        ranked = list(query.iter_ranked(5))
        scores = [score for score, _tree in ranked]
        assert scores == sorted(scores), context
        assert query.sample_n(seed, 4) == query.sample_n(seed, 4), context
        if expected > _ENUMERABLE:
            continue
        # On enumerable forests the ranked stream, run to exhaustion, is a
        # permutation of plain enumeration (dedup semantics included).
        full = [tree for _score, tree in ForestQuery(forest, "size").iter_ranked()]
        plain = list(iter_trees(forest))
        assert len(full) == len(plain), context
        assert {repr(t) for t in full} == {repr(t) for t in plain}, context


def test_catalan_known_answer_pinned():
    """Regression pin: 10 leaves under S → S S | a has exactly Catalan(9)=4862 trees."""
    from repro.grammars import catalan_grammar
    from repro.workloads import catalan_count, catalan_tokens

    assert catalan_count(10) == 4862
    parser = DerivativeParser(catalan_grammar().to_language())
    assert count_trees(parser.parse_forest(catalan_tokens(10))) == 4862


# ---------------------------------------------------------------------------
# serialization: saved + reloaded tables reproduce recognition
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell", cells_for_gate("serialization"), ids=_CELL_ID)
def test_registry_serialization_round_trip(cell, tmp_path):
    grammar = cell.grammar.factory()
    size, seed, tokens = _quick_streams(cell, max_streams=1)[0]
    streams = [tokens] + corrupted_streams(tokens, seed) + mutated_streams(tokens, seed)
    table = GrammarTable(grammar)
    warm = CompiledParser(table=table)
    expected = [warm.recognize(stream) for stream in streams]
    positions = [_table_failure_position(warm, stream) for stream in streams]
    path = str(tmp_path / "{}.table.json".format(cell.id))
    save_table(table, path)
    loaded = CompiledParser(table=load_table(path, cell.grammar.factory()))
    got = [loaded.recognize(stream) for stream in streams]
    assert got == expected, "cell {!r}: reloaded table changed verdicts".format(cell.id)
    got_positions = [_table_failure_position(loaded, stream) for stream in streams]
    assert got_positions == positions, (
        "cell {!r}: reloaded table changed failure positions".format(cell.id)
    )


# ---------------------------------------------------------------------------
# dense: the int-indexed core agrees with interpreted recognition
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell", cells_for_gate("dense"), ids=_CELL_ID)
def test_registry_dense_core_agreement(cell):
    grammar = cell.grammar.factory()
    derivative = DerivativeParser(grammar.to_language())
    parser = CompiledParser(grammar)
    for size, seed, tokens in _quick_streams(cell, max_streams=1):
        for stream in [tokens] + corrupted_streams(tokens, seed=seed):
            expected = derivative.recognize(stream)
            assert parser.recognize(stream) is expected
            # The warm pass walks dense rows; stats prove it stayed on the
            # fast path and agreed anyway.
            accepted, hits, fallbacks = parser.recognize_with_stats(stream)
            assert accepted is expected
            assert hits + fallbacks > 0 or not stream


# ---------------------------------------------------------------------------
# incremental: edits converge to the from-scratch result
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cell", cells_for_gate("incremental"), ids=_CELL_ID)
def test_registry_incremental_convergence(cell):
    grammar = cell.grammar.factory()
    size, seed, tokens = _quick_streams(cell, max_streams=1)[0]
    derivative = DerivativeParser(grammar.to_language())
    document = IncrementalDocument(grammar, tokens)
    rng = random.Random(seed)
    buffer = list(tokens)
    for _ in range(3):
        position = rng.randrange(len(buffer))
        junk = [Tok("@")]
        document.apply_edit(position, position, junk)
        buffer[position:position] = junk
        assert document.recognize() is derivative.recognize(buffer)
        assert document.failure_position() == _failure_position(derivative, buffer)
        # Repair the buffer; the document must converge back.
        document.apply_edit(position, position + 1, [])
        del buffer[position]
        assert document.recognize() is derivative.recognize(buffer)
    assert buffer == list(tokens)


# ---------------------------------------------------------------------------
# pooled: one shared worker fleet agrees with single-process recognition
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_pool():
    from repro.serve import PooledParseService

    pool = PooledParseService(workers=2, replication=1)
    yield pool
    pool.close()


@pytest.mark.parametrize("cell", cells_for_gate("pooled"), ids=_CELL_ID)
def test_registry_pool_parity(cell, shared_pool):
    grammar = cell.grammar.factory()
    derivative = DerivativeParser(grammar.to_language())
    size, seed, tokens = _quick_streams(cell, max_streams=1)[0]
    streams = [tokens] + corrupted_streams(tokens, seed=seed)
    expected = [derivative.recognize(stream) for stream in streams]
    assert shared_pool.recognize_many(grammar, streams) == expected, (
        "cell {!r}: pool disagrees with single-process recognition".format(cell.id)
    )


# ---------------------------------------------------------------------------
# guard: the matrix cannot grow unchecked cells
# ---------------------------------------------------------------------------
def test_every_zoo_grammar_has_differential_coverage():
    """Every grammar registered in the zoo must sit in a differential cell."""
    covered = {cell.grammar.id for cell in cells_for_gate("differential")}
    missing = [gid for gid in zoo_grammar_ids() if gid not in covered]
    assert not missing, (
        "zoo grammars without differential coverage: {} — give their cells "
        "the 'differential' gate (or add a differential cell)".format(missing)
    )


def test_every_ambiguous_grammar_has_a_count_gate():
    """Ambiguous grammars must pin their forests to closed-form counts."""
    for cell in CELLS:
        if cell.grammar.ambiguous:
            assert "ambiguity" in cell.gates, (
                "ambiguous cell {!r} lacks the ambiguity gate".format(cell.id)
            )
            assert "trees" not in cell.gates, (
                "ambiguous cell {!r} must not claim exact tree parity".format(cell.id)
            )


def test_every_ambiguous_cell_has_a_forest_gate():
    """Ambiguous cells must run the forest-query gate too.

    The ambiguity gate pins the count; the forest gate pins ranked
    extraction and sampling on the same forests — an ambiguous cell
    without it would leave count-independent extraction uncovered.
    """
    for cell in CELLS:
        if cell.grammar.ambiguous:
            assert "forest" in cell.gates, (
                "ambiguous cell {!r} lacks the forest gate — add it so the "
                "forest-query layer (count/rank/sample) is exercised on "
                "this cell's forests".format(cell.id)
            )
