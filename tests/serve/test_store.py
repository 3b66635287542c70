"""TableStore: atomic persistence and zero-derivation loads by fingerprint."""

import json
import os

import pytest

from repro.compile import CompiledParser, GrammarTable
from repro.core.metrics import Metrics
from repro.grammars import arithmetic_grammar
from repro.serve import TableStore
from repro.workloads import arithmetic_tokens


def warmed_table(grammar, tokens):
    table = GrammarTable(grammar.language())
    CompiledParser(table=table).recognize(tokens)
    return table


@pytest.fixture
def store(tmp_path):
    return TableStore(str(tmp_path / "tables"))


class TestRoundTrip:
    def test_persist_load_runs_warm(self, store):
        tokens = arithmetic_tokens(120, seed=4)
        table = warmed_table(arithmetic_grammar(), tokens)
        path = store.persist(table)

        assert os.path.exists(path)
        assert store.has(table.fingerprint)
        assert store.fingerprints() == [table.fingerprint]
        assert store.paths() == [path]
        assert len(store) == 1

        metrics = Metrics()
        loaded = store.load(table.fingerprint, arithmetic_grammar(), metrics=metrics)
        assert CompiledParser(table=loaded).recognize(tokens) is True
        # The whole walk stayed on restored transitions: a store load is a
        # zero-derivation warm start.
        assert loaded.transitions_derived == 0
        assert metrics.derive_calls == 0

    def test_missing_fingerprint_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.load("0" * 16, arithmetic_grammar())

    def test_repr_and_creation(self, tmp_path):
        root = str(tmp_path / "made" / "on" / "demand")
        store = TableStore(root)
        assert os.path.isdir(root)
        assert "0 tables" in repr(store)


class TestWriteDiscipline:
    def test_overwrite_false_is_first_writer_wins(self, store):
        first = store.persist_document({"fingerprint": "aa", "marker": 1})
        second = store.persist_document({"fingerprint": "aa", "marker": 2}, overwrite=False)
        assert first == second
        with open(first) as handle:
            assert json.load(handle)["marker"] == 1
        # The default overwrites (last writer wins).
        store.persist_document({"fingerprint": "aa", "marker": 3})
        with open(first) as handle:
            assert json.load(handle)["marker"] == 3

    def test_persist_leaves_no_temp_files(self, store):
        store.persist(warmed_table(arithmetic_grammar(), arithmetic_tokens(30, seed=1)))
        leftovers = [name for name in os.listdir(store.root) if name.endswith(".tmp")]
        assert leftovers == []

    def test_failed_write_cleans_up_and_keeps_no_document(self, store):
        class Unserializable:
            pass

        with pytest.raises(TypeError):
            store.persist_document({"fingerprint": "bb", "bad": Unserializable()})
        assert not store.has("bb")
        assert [name for name in os.listdir(store.root) if name.endswith(".tmp")] == []
