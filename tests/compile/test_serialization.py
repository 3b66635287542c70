"""Tests for compiled-table serialization (ship a hot grammar pre-warmed)."""

import json

import pytest

from repro.compile import (
    CompiledParser,
    GrammarTable,
    dump_table,
    load_table,
    restore_table,
    save_table,
)
from repro.compile.serialize import VERSION
from repro.compile.automaton import STATE
from repro.core import DerivativeParser, ReproError
from repro.grammars import arithmetic_grammar, pl0_grammar, sexpr_grammar
from repro.workloads import arithmetic_tokens, pl0_tokens, sexpr_tokens


def warmed_table(grammar, tokens):
    table = GrammarTable(grammar.language())
    CompiledParser(table=table).recognize(tokens)
    return table


class TestRoundTrip:
    def test_save_load_reproduces_recognition(self, tmp_path):
        grammar = arithmetic_grammar()
        tokens = arithmetic_tokens(120, seed=11)
        table = warmed_table(grammar, tokens)
        path = str(tmp_path / "arith.table.json")
        save_table(table, path)

        # A *fresh* grammar object with the same structure re-attaches.
        loaded = load_table(path, arithmetic_grammar())
        parser = CompiledParser(table=loaded)
        assert parser.recognize(tokens) is True
        assert parser.recognize(tokens[:-1]) is DerivativeParser(
            arithmetic_grammar().to_language()
        ).recognize(tokens[:-1])

    def test_loaded_table_runs_without_derivation(self, tmp_path):
        grammar = pl0_grammar()
        tokens = pl0_tokens(400, seed=2)
        table = warmed_table(grammar, tokens)
        path = str(tmp_path / "pl0.table.json")
        save_table(table, path)

        loaded = load_table(path, pl0_grammar())
        parser = CompiledParser(table=loaded)
        accepted, hits, fallbacks = parser.recognize_with_stats(tokens)
        assert accepted is True
        # Warm-from-disk: the whole walk stayed on serialized transitions,
        # and entirely inside the restored edge dicts.
        assert loaded.transitions_derived == 0
        assert fallbacks == 0
        assert hits == len(tokens)
        # And the loaded table reports its warmth (kind edges stand in for
        # class edges until a miss re-classifies a state).
        assert loaded.transition_count() > 0
        assert loaded.stats()["class_transitions"] > 0
        assert all(state.edges[STATE] is state for state in loaded.states())

    def test_loaded_table_rejects_without_deriving(self):
        # The corrupted stream dies at token 30 on a dead edge the warm-up
        # discovered; the dead edge survives the round trip, so the loaded
        # table rejects on its edge dicts alone: no derivation, no fallback.
        tokens = pl0_tokens(200, seed=1)
        corrupted = tokens[:30] + tokens[31:]
        table = warmed_table(pl0_grammar(), corrupted)
        loaded = restore_table(dump_table(table), pl0_grammar())
        parser = CompiledParser(table=loaded)
        assert parser.recognize_with_stats(corrupted) == (False, 31, 0)
        assert loaded.transitions_derived == 0
        state = parser.start().feed_all(corrupted)
        assert state.failed
        assert state.failure_position == 30

    def test_document_shape(self, tmp_path):
        table = warmed_table(sexpr_grammar(), sexpr_tokens(40, seed=1))
        data = dump_table(table)
        assert data["format"] == "repro-compiled-table"
        assert data["version"] == VERSION
        assert data["start"] == 0
        assert len(data["states"]) == table.state_count()
        # One [kind, target] pair per edge of the state; -1 is the sink.
        for entry, state in zip(data["states"], table.states()):
            assert len(entry["edges"]) == len(state.edges) - 1
            for kind, target in entry["edges"]:
                successor = state.edges[kind][STATE]
                assert target == (-1 if successor.dead else successor.index)
        # JSON-clean end to end.
        path = str(tmp_path / "sexpr.table.json")
        save_table(table, path)
        with open(path) as handle:
            assert json.load(handle)["fingerprint"] == table.fingerprint

    def test_fingerprint_stable_across_grammar_constructions(self):
        first = GrammarTable(arithmetic_grammar().language())
        second = GrammarTable(arithmetic_grammar().language())
        assert first.fingerprint == second.fingerprint

    def test_fingerprint_survives_in_place_pruning(self, tmp_path):
        # The table cuts its grammar's dead branches when it is built, and
        # for a grammar containing an unproductive subgrammar that rewrites
        # its copy's nodes in place.  The fingerprint names the caller's
        # grammar, so a saved table re-attaches to the un-cut grammar in a
        # fresh process.
        from repro.core import Ref, token
        from repro.core.languages import structural_fingerprint

        def leaky_grammar():
            dead = Ref("D")
            dead.set(token("x") + dead)  # unproductive: no base case
            start = Ref("S")
            start.set((token("a") + start + token("b")) | (token("a") + token("b")) | dead)
            return start

        warmed = GrammarTable(leaky_grammar())
        # The in-place cut happened: the cut graph fingerprints differently.
        assert structural_fingerprint(warmed.root) != warmed.fingerprint
        assert warmed.fingerprint == structural_fingerprint(leaky_grammar())
        stream = ["a"] * 200 + ["b"] * 200
        assert CompiledParser(table=warmed).recognize(stream) is True
        assert warmed.fingerprint == GrammarTable(leaky_grammar()).fingerprint
        path = str(tmp_path / "leaky.table.json")
        save_table(warmed, path)
        loaded = load_table(path, leaky_grammar())
        assert CompiledParser(table=loaded).recognize(stream) is True
        assert loaded.transitions_derived == 0

    def test_fingerprint_is_the_callers_grammar_fingerprint(self, tmp_path):
        # One key per grammar: the table is named by the grammar its caller
        # built, not by the root it optimizes, so a store persisted from a
        # table is found under the key the serve layer computes.
        from repro.bench.registry import CELLS
        from repro.core.languages import structural_fingerprint
        from repro.serve import TableStore

        table = GrammarTable(pl0_grammar().language())
        # PL/0's root optimization rewrites: the two keys would differ.
        assert structural_fingerprint(table.root) != table.fingerprint
        factories = {cell.grammar.id: cell.grammar.factory for cell in CELLS}
        store = TableStore(str(tmp_path / "tables"))
        for grammar_id, factory in sorted(factories.items()):
            root = factory().language()
            table = GrammarTable(root)
            assert table.fingerprint == structural_fingerprint(root), grammar_id
            store.persist(table)
            assert store.has(structural_fingerprint(factory().language())), grammar_id

    def test_fingerprint_ignores_address_bearing_reprs(self):
        # Default object reprs embed memory addresses; hashing them would
        # make a grammar reject its own serialized tables in the next
        # process.  Two separately allocated payloads must fingerprint
        # identically.
        from repro.core import Ref, epsilon, token
        from repro.core.languages import structural_fingerprint

        class Payload:
            pass

        def build():
            return Ref("S").set(token("a") + epsilon(Payload()))

        assert structural_fingerprint(build()) == structural_fingerprint(build())


class TestGuards:
    def test_wrong_grammar_is_refused(self):
        table = warmed_table(arithmetic_grammar(), arithmetic_tokens(30, seed=0))
        data = dump_table(table)
        with pytest.raises(ReproError):
            restore_table(data, sexpr_grammar())

    def test_version_3_document_is_refused(self):
        # Version 3 stamped the optimized root's fingerprint; such a
        # document is refused by its version, naming both versions, not
        # reported as a grammar mismatch.
        data = dump_table(warmed_table(arithmetic_grammar(), arithmetic_tokens(30, seed=0)))
        data["version"] = 3
        with pytest.raises(ReproError, match="Re-save") as excinfo:
            restore_table(data, arithmetic_grammar())
        assert "version 3" in str(excinfo.value)
        assert "version {}".format(VERSION) in str(excinfo.value)
        assert "mismatch" not in str(excinfo.value)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ReproError):
            restore_table({"format": "something-else"}, arithmetic_grammar())
        with pytest.raises(ReproError):
            restore_table(
                {"format": "repro-compiled-table", "version": 99},
                arithmetic_grammar(),
            )

    def test_rejects_pre_dense_version_naming_both(self):
        # Version-1 documents predate the dense layout; the refusal names
        # the document's version and the version this build reads.
        with pytest.raises(ReproError) as excinfo:
            restore_table(
                {"format": "repro-compiled-table", "version": 1},
                arithmetic_grammar(),
            )
        assert "1" in str(excinfo.value)
        assert str(VERSION) in str(excinfo.value)

    def test_rejects_version_2_naming_both(self):
        # Version 2 stored per-kind dicts and int rows; no reader is kept.
        with pytest.raises(ReproError) as excinfo:
            restore_table(
                {"format": "repro-compiled-table", "version": 2},
                arithmetic_grammar(),
            )
        assert "version 2" in str(excinfo.value)
        assert "version {}".format(VERSION) in str(excinfo.value)


class TestMaterialization:
    def test_divergent_input_materializes_states_lazily(self, tmp_path):
        grammar = arithmetic_grammar()
        warm = arithmetic_tokens(60, seed=3)
        table = warmed_table(grammar, warm)
        path = str(tmp_path / "t.json")
        save_table(table, path)

        loaded = load_table(path, arithmetic_grammar())
        parser = CompiledParser(table=loaded)
        oracle = DerivativeParser(arithmetic_grammar().to_language())
        for seed in range(4, 10):
            stream = arithmetic_tokens(50, seed=seed)
            assert parser.recognize(stream) is oracle.recognize(stream)
            corrupted = stream[:9] + stream[10:]
            assert parser.recognize(corrupted) is oracle.recognize(corrupted)
        # Divergence forced some live derivation through witness chains.
        assert loaded.transitions_derived > 0

    def test_loaded_table_can_be_saved_again(self, tmp_path):
        grammar = arithmetic_grammar()
        tokens = arithmetic_tokens(50, seed=6)
        table = warmed_table(grammar, tokens)
        first_path = str(tmp_path / "first.json")
        save_table(table, first_path)

        loaded = load_table(first_path, arithmetic_grammar())
        CompiledParser(table=loaded).recognize(arithmetic_tokens(50, seed=7))
        second_path = str(tmp_path / "second.json")
        save_table(loaded, second_path)

        reloaded = load_table(second_path, arithmetic_grammar())
        parser = CompiledParser(table=reloaded)
        assert parser.recognize(tokens) is True
        assert parser.recognize(arithmetic_tokens(50, seed=7)) is True
