"""Unit tests for the compiled derivative automaton (repro.compile)."""

import tracemalloc

import pytest

from repro.compile import (
    CompiledParser,
    GrammarTable,
    TokenClassifier,
    compile_grammar,
    discard_table,
)
from repro.core import DerivativeParser, ParseError, Ref, token
from repro.core.languages import Token, terminal_nodes
from repro.core.parse import parse as parse_fn, recognize as recognize_fn
from repro.grammars import (
    arithmetic_grammar,
    balanced_parens_grammar,
    json_grammar,
    pl0_grammar,
    sexpr_grammar,
)
from repro.incremental import IncrementalDocument
from repro.lexer.tokens import Tok
from repro.serve import ParseService
from repro.workloads import arithmetic_tokens, json_tokens, pl0_tokens, sexpr_tokens


class TestTokenClassifier:
    def test_signature_partitions_alphabet_per_state(self):
        grammar = arithmetic_grammar().language()
        classifier = TokenClassifier(grammar)
        # NUMBER and NAME hit different terminals; two '+' tokens with
        # different values share a signature; junk matches nothing.
        assert classifier.signature(Tok("NUMBER", "1")) != classifier.signature(
            Tok("NAME", "x")
        )
        assert classifier.signature(Tok("+", "+")) == classifier.signature(Tok("+"))
        assert classifier.signature(Tok("@")) == frozenset()

    def test_classes_groups_by_acceptance_vector(self):
        grammar = arithmetic_grammar().language()
        classifier = TokenClassifier(grammar)
        tokens = [Tok("NUMBER", "1"), Tok("NUMBER", "2"), Tok("+"), Tok("@"), Tok("!")]
        groups = classifier.classes(tokens)
        sizes = sorted(len(group) for group in groups.values())
        # NUMBERs together, '+' alone, the two junk tokens together.
        assert sizes == [1, 2, 2]

    def test_pure_iff_no_predicate_terminals(self):
        grammar = arithmetic_grammar().language()
        assert TokenClassifier(grammar).pure is True
        lang = Ref("p").set(Token(predicate=lambda tok: tok == "x"))
        assert TokenClassifier(lang).pure is False

    def test_terminal_nodes_enumerates_token_leaves(self):
        grammar = arithmetic_grammar().language()
        kinds = {term.kind for term in terminal_nodes(grammar)}
        assert {"+", "-", "*", "/", "(", ")", "NUMBER", "NAME"} <= kinds


class TestGrammarTable:
    def test_states_are_interned_by_node_identity(self):
        table = GrammarTable(arithmetic_grammar().language())
        tokens = arithmetic_tokens(60, seed=0)
        parser = CompiledParser(table=table)
        assert parser.recognize(tokens) is True
        first_states = table.state_count()
        first_derived = table.transitions_derived
        # Re-walking identical input creates no states and derives nothing.
        assert parser.recognize(tokens) is True
        assert table.state_count() == first_states
        assert table.transitions_derived == first_derived

    def test_one_class_transition_covers_many_tokens(self):
        # All NUMBER tokens share the start state's class edge regardless of
        # value: deriving happens once, not once per distinct value.
        table = GrammarTable(arithmetic_grammar().language())
        parser = CompiledParser(table=table)
        for value in range(20):
            parser.recognize([Tok("NUMBER", str(value))])
        assert table.transitions_derived == 1

    def test_table_is_shared_across_parser_instances(self):
        grammar = arithmetic_grammar()
        first = CompiledParser(grammar)
        second = CompiledParser(grammar)
        assert first.table is second.table
        # Warmth carries over: what the first parser derived, the second
        # walks for free.
        tokens = arithmetic_tokens(40, seed=1)
        assert first.recognize(tokens) is True
        derived = first.table.transitions_derived
        assert second.recognize(tokens) is True
        assert second.table.transitions_derived == derived

    def test_compile_method_lands_on_shared_table(self):
        grammar = arithmetic_grammar()
        compiled = CompiledParser(grammar)
        via_parser = DerivativeParser(grammar.language()).compile()
        assert via_parser.table is compiled.table

    def test_compile_method_shares_from_a_grammar_object(self):
        # DerivativeParser interprets a *fresh* to_language() conversion,
        # but compile() must resolve through the original Grammar so it
        # lands on the cached language() graph the shared table anchors on.
        grammar = arithmetic_grammar()
        first = DerivativeParser(grammar).compile()
        second = DerivativeParser(grammar).compile()
        direct = CompiledParser(grammar)
        assert first.table is second.table is direct.table

    def test_max_states_caps_interning_but_not_correctness(self):
        table = GrammarTable(arithmetic_grammar().language(), max_states=3)
        parser = CompiledParser(table=table)
        tokens = arithmetic_tokens(50, seed=2)
        assert parser.recognize(tokens) is True
        assert table.state_count() <= 3
        assert parser.recognize(tokens[:-1]) is DerivativeParser(
            arithmetic_grammar().to_language()
        ).recognize(tokens[:-1])

    def test_stats_reports_table_shape(self):
        table = GrammarTable(sexpr_grammar().language())
        CompiledParser(table=table).recognize(sexpr_tokens(30, seed=0))
        stats = table.stats()
        assert stats["states"] > 1
        assert stats["class_transitions"] >= 1
        assert stats["transitions_derived"] >= stats["class_transitions"]
        assert stats["memo_entries"] > 0


class TestRecognition:
    @pytest.mark.parametrize(
        "grammar_fn,tokens_fn",
        [
            (arithmetic_grammar, lambda: arithmetic_tokens(80, seed=3)),
            (sexpr_grammar, lambda: sexpr_tokens(60, seed=3)),
            (json_grammar, lambda: json_tokens(80, seed=3)),
            (pl0_grammar, lambda: pl0_tokens(200, seed=3)),
        ],
    )
    def test_accepts_valid_streams(self, grammar_fn, tokens_fn):
        assert CompiledParser(grammar_fn()).recognize(tokens_fn()) is True

    def test_rejects_and_accepts_like_the_interpreter(self):
        grammar = balanced_parens_grammar()
        compiled = CompiledParser(grammar)
        interpreted = DerivativeParser(grammar.to_language())
        streams = [
            [],
            [Tok("(")],
            [Tok("("), Tok(")")],
            [Tok(")"), Tok("(")],
            [Tok("("), Tok("("), Tok(")"), Tok(")")],
            [Tok("("), Tok(")"), Tok(")")],
        ]
        for stream in streams:
            assert compiled.recognize(stream) is interpreted.recognize(stream), stream

    def test_empty_input_on_non_nullable_grammar(self):
        assert CompiledParser(arithmetic_grammar()).recognize([]) is False

    def test_engine_dispatch_helpers(self):
        grammar = arithmetic_grammar()
        tokens = [Tok("NUMBER", "1"), Tok("+"), Tok("NUMBER", "2")]
        assert recognize_fn(grammar, tokens, engine="compiled") is True
        tree = parse_fn(grammar, tokens, engine="compiled")
        assert tree[0] == "expr"
        with pytest.raises(ValueError):
            recognize_fn(grammar, tokens, engine="bogus")


class TestStreamingState:
    def test_feed_tracks_acceptance(self):
        state = CompiledParser(arithmetic_grammar()).start()
        state.feed(Tok("NUMBER", "1"))
        assert state.accepts() is True
        state.feed(Tok("+"))
        assert state.accepts() is False
        state.feed(Tok("NUMBER", "2"))
        assert state.accepts() is True
        assert state.position == 3

    def test_feed_reports_structural_death(self):
        # `failed` reports *structural* collapse to ∅, with the same timing
        # as the interpreted ParserState: compaction punts on cyclic cores,
        # so only derivations that really produce the ∅ node trip it — as a
        # leading ')' does on the balanced-parens grammar.
        state = CompiledParser(balanced_parens_grammar()).start()
        state.feed(Tok(")"))
        assert state.failed is True
        assert state.failure_position == 0
        # Feeding a failed state is a no-op that keeps the position.
        state.feed(Tok("("))
        assert state.failure_position == 0
        assert state.position == 1

    def test_feed_parity_with_interpreted_state(self):
        grammar = sexpr_grammar()
        compiled = CompiledParser(grammar).start()
        interpreted = DerivativeParser(grammar.to_language()).start()
        for tok in sexpr_tokens(40, seed=5):
            compiled.feed(tok)
            interpreted.feed(tok)
            assert compiled.accepts() == interpreted.accepts()
            assert compiled.failed == interpreted.failed

    def test_cursor_keeps_constant_memory(self):
        # The cursor is a recognizer: one state reference and two integers,
        # however long the stream.  On a warm table every token is an edge
        # hit, so feeding allocates nothing that outlives the call.
        parser = CompiledParser(pl0_grammar())
        tokens = pl0_tokens(20000, seed=4)
        assert parser.recognize(tokens)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = parser.start().feed_all(tokens)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert state.accepts()
        assert grown < 4096

    def test_feed_all_stops_pulling_on_failure(self):
        state = CompiledParser(balanced_parens_grammar()).start()
        stream = iter([Tok(")"), Tok("(")])
        state.feed_all(stream)
        assert state.failed is True
        assert state.failure_position == 0
        assert next(stream).kind == "("  # unconsumed remainder survives

    def test_forest_and_tree_via_fallback(self):
        # A compiled stream that needs trees is a document (or a session,
        # which owns one): it keeps the buffer and re-derives it through
        # the compiled parser's interpreted fallback.
        grammar = arithmetic_grammar()
        stream = [Tok("NUMBER", "1"), Tok("+"), Tok("NUMBER", "2")]
        document = IncrementalDocument(grammar, stream, engine="compiled")
        assert document.tree()[0] == "expr"
        with ParseService(workers=1) as service:
            session = service.open_session(grammar)
            session.feed_all(stream)
            assert session.tree() == document.tree()
        with pytest.raises(ParseError):
            IncrementalDocument(grammar, [Tok("@")], engine="compiled").forest()


class TestParseFallback:
    def test_parse_trees_match_interpreter(self):
        grammar = arithmetic_grammar()
        tokens = arithmetic_tokens(30, seed=7)
        compiled = CompiledParser(grammar)
        interpreted = DerivativeParser(grammar.to_language())
        assert compiled.parse(tokens) == interpreted.parse(tokens)

    def test_parse_preserves_token_values(self):
        # The automaton interns transitions per token class; parse() must
        # still see the *actual* values, not the class representative's.
        grammar = arithmetic_grammar()
        compiled = CompiledParser(grammar)
        compiled.recognize([Tok("NUMBER", "111")])  # warm the class edge
        tree = compiled.parse([Tok("NUMBER", "222")])
        assert "222" in repr(tree)
        assert "111" not in repr(tree)

    def test_parse_failure_positions_match_interpreter(self):
        grammar = arithmetic_grammar()
        compiled = CompiledParser(grammar)
        interpreted = DerivativeParser(grammar.to_language())
        for stream in (
            [Tok("NUMBER", "1"), Tok("+"), Tok("*")],
            [Tok("*")],
            [Tok("NUMBER", "1"), Tok("+")],
            [Tok("("), Tok("NUMBER", "1"), Tok(")"), Tok(")")],
        ):
            with pytest.raises(ParseError) as compiled_err:
                compiled.parse(stream)
            with pytest.raises(ParseError) as interpreted_err:
                interpreted.parse(stream)
            assert compiled_err.value.position == interpreted_err.value.position

    def test_reset_keeps_the_grammar_table(self):
        grammar = arithmetic_grammar()
        parser = CompiledParser(grammar)
        parser.recognize(arithmetic_tokens(30, seed=8))
        derived = parser.table.transitions_derived
        parser.reset()
        assert parser.table.transitions_derived == derived
        assert parser.recognize(arithmetic_tokens(30, seed=8)) is True
        assert parser.table.transitions_derived == derived


class TestImpureStates:
    def test_predicate_terminals_stay_sound(self):
        # A predicate that inspects token *values* must not be kind-cached.
        small = Token(
            predicate=lambda tok: tok.kind == "N" and tok.value < 10, label="small"
        )
        big = Token(
            predicate=lambda tok: tok.kind == "N" and tok.value >= 10, label="big"
        )
        lang = Ref("start").set((small + token("x")) | big)
        parser = CompiledParser(lang)
        assert parser.recognize([Tok("N", 3), Tok("x")]) is True
        assert parser.recognize([Tok("N", 30)]) is True
        assert parser.recognize([Tok("N", 30), Tok("x")]) is False
        assert parser.recognize([Tok("N", 3)]) is False

    def test_registry_dispatch_on_raw_language(self):
        lang = Ref("L").set(token("a") + token("b"))
        first = compile_grammar(lang)
        second = compile_grammar(lang)
        assert first is second
        assert CompiledParser(lang).recognize([Tok("a"), Tok("b")]) is True


class TestTableLifetime:
    def test_non_default_options_get_a_private_table(self):
        lang = Ref("L").set(token("a") + token("b"))
        capped = compile_grammar(lang, max_states=2)
        shared = compile_grammar(lang)
        assert capped is not shared
        assert capped.max_states == 2
        assert shared.max_states is None
        # The private table never hijacks the anchor: default-config
        # callers keep sharing one table regardless of who compiled first.
        assert compile_grammar(lang) is shared
        assert compile_grammar(lang, max_states=2) is not capped  # private each time

    def test_grammar_keeps_its_table_alive_across_parsers(self):
        # The grammar owns the table: even after every parser is dropped,
        # a new parser over the living grammar finds the warm table.
        lang = Ref("L").set(token("a") + token("b"))
        first = CompiledParser(lang)
        assert first.recognize([Tok("a"), Tok("b")]) is True
        derived = first.table.transitions_derived
        del first
        second = CompiledParser(lang)
        assert second.recognize([Tok("a"), Tok("b")]) is True
        assert second.table.transitions_derived == derived  # still warm

    def test_dropping_the_grammar_releases_the_table(self):
        import gc
        import weakref

        def build():
            lang = Ref("L").set(token("a") + token("b"))
            table = compile_grammar(lang)
            CompiledParser(table=table).recognize([Tok("a"), Tok("b")])
            return weakref.ref(table.memo)

        probe = build()
        gc.collect()
        assert probe() is None, (
            "grammar + anchored table + memo must be one collectable cycle"
        )

    def test_discard_table_restarts_the_shared_cache(self):
        lang = Ref("L").set(token("a") + token("b"))
        table = compile_grammar(lang)
        CompiledParser(table=table).recognize([Tok("a"), Tok("b")])
        assert discard_table(lang) is True
        assert lang.compiled_table is None
        assert discard_table(lang) is False  # nothing anchored anymore
        # The old table still works for holders; new compiles start fresh.
        assert CompiledParser(table=table).recognize([Tok("a"), Tok("b")]) is True
        assert compile_grammar(lang) is not table

    def test_engine_dispatch_stays_warm_across_calls(self):
        # The wrappers share the grammar-anchored table too: the second
        # call must not cold-compile.
        lang = Ref("L").set(token("a") + token("b"))
        assert recognize_fn(lang, [Tok("a"), Tok("b")], engine="compiled") is True
        derived = lang.compiled_table.transitions_derived
        assert recognize_fn(lang, [Tok("a"), Tok("b")], engine="compiled") is True
        assert lang.compiled_table.transitions_derived == derived

    def test_streaming_tree_reports_exact_semantic_position(self):
        # The automaton's structural failure can lag the semantic death;
        # a compiled document's and a session's tree() must re-diagnose
        # through the fallback and report the same position as the
        # interpreted parser's parse().
        grammar = arithmetic_grammar()
        stream = [Tok("NUMBER", "1"), Tok("+"), Tok("*"), Tok("NUMBER", "2")]
        with pytest.raises(ParseError) as interpreted_err:
            DerivativeParser(grammar.to_language()).parse(stream)
        with pytest.raises(ParseError) as document_err:
            IncrementalDocument(grammar, stream, engine="compiled").tree()
        with ParseService(workers=1) as service:
            session = service.open_session(grammar)
            session.feed_all(stream)
            with pytest.raises(ParseError) as session_err:
                session.tree()
        assert interpreted_err.value.position == 2
        assert document_err.value.position == 2
        assert session_err.value.position == 2

    def test_engine_dispatch_rejects_interpreted_knobs(self):
        grammar = arithmetic_grammar()
        tokens = [Tok("NUMBER", "1")]
        with pytest.raises(TypeError, match="engine='compiled'"):
            recognize_fn(grammar, tokens, engine="compiled", memo="single")
        with pytest.raises(TypeError, match="engine='compiled'"):
            parse_fn(grammar, tokens, engine="compiled", compaction=False)
