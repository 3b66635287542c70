"""Unit tests for the memoization strategies (Section 4.4)."""

import pytest

from repro.core.languages import token
from repro.core.memo import (
    MISS,
    PerNodeDictMemo,
    PersistentDictMemo,
    SingleEntryMemo,
    make_memo,
    single_entry_fraction,
)
from repro.core.metrics import Metrics


ALL_STRATEGIES = [SingleEntryMemo, PerNodeDictMemo]


@pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
class TestCommonBehaviour:
    def test_miss_then_hit(self, strategy_cls):
        memo = strategy_cls(Metrics())
        node, result = token("a"), token("b")
        assert memo.get(node, "x") is MISS
        memo.put(node, "x", result)
        assert memo.get(node, "x") is result

    def test_different_tokens_are_different_keys(self, strategy_cls):
        memo = strategy_cls(Metrics())
        node = token("a")
        first, second = token("1"), token("2")
        memo.put(node, "x", first)
        memo.put(node, "y", second)
        assert memo.get(node, "y") is second

    def test_clear_forgets_entries(self, strategy_cls):
        memo = strategy_cls(Metrics())
        node, result = token("a"), token("b")
        memo.put(node, "x", result)
        memo.clear()
        assert memo.get(node, "x") is MISS

    def test_put_get_roundtrip_with_tuple_tokens(self, strategy_cls):
        memo = strategy_cls(Metrics())
        node, result = token("NAME"), token("b")
        memo.put(node, ("NAME", "foo"), result)
        assert memo.get(node, ("NAME", "foo")) is result
        assert memo.get(node, ("NAME", "bar")) is MISS


class TestSingleEntrySpecifics:
    def test_eviction_on_second_token(self):
        metrics = Metrics()
        memo = SingleEntryMemo(metrics)
        node = token("a")
        memo.put(node, "x", token("1"))
        memo.put(node, "y", token("2"))
        # The old entry is forgotten — the memo is "forgetful" (Section 4.4).
        assert memo.get(node, "x") is MISS
        assert metrics.memo_evictions == 1

    def test_same_token_does_not_evict(self):
        metrics = Metrics()
        memo = SingleEntryMemo(metrics)
        node = token("a")
        memo.put(node, "x", token("1"))
        memo.put(node, "x", token("2"))
        assert metrics.memo_evictions == 0

    def test_clear_is_constant_time_epoch_bump(self):
        memo = SingleEntryMemo(Metrics())
        node = token("a")
        memo.put(node, "x", token("1"))
        epoch_before = memo.epoch
        memo.clear()
        assert memo.epoch == epoch_before + 1
        assert memo.get(node, "x") is MISS


class TestDictStrategies:
    def test_per_node_dict_keeps_all_entries(self):
        memo = PerNodeDictMemo(Metrics())
        node = token("a")
        memo.put(node, "x", token("1"))
        memo.put(node, "y", token("2"))
        assert memo.get(node, "x") is not MISS
        assert memo.get(node, "y") is not MISS

    def test_clear_drops_every_written_table(self):
        memo = PerNodeDictMemo(Metrics())
        nodes = [token(kind) for kind in "abc"]
        for node in nodes:
            memo.put(node, "x", token("1"))
            memo.put(node, "y", token("2"))
        memo.clear()
        assert all(node.memo_table is None for node in nodes)
        assert memo.entry_distribution() == {}

    def test_persistent_memo_survives_clear(self):
        memo = PersistentDictMemo(Metrics())
        node, result = token("a"), token("b")
        memo.put(node, "x", result)
        memo.put(node, "y", result)
        memo.clear()
        assert memo.get(node, "x") is result
        assert memo.entry_count() == 2

    def test_entry_distribution(self):
        memo = PerNodeDictMemo(Metrics())
        one_entry, two_entries = token("a"), token("b")
        memo.put(one_entry, "x", token("1"))
        memo.put(two_entries, "x", token("1"))
        memo.put(two_entries, "y", token("2"))
        distribution = memo.entry_distribution()
        assert distribution == {1: 1, 2: 1}
        assert single_entry_fraction(distribution) == 0.5

    def test_single_entry_fraction_of_empty_distribution(self):
        assert single_entry_fraction({}) == 1.0


class TestFactory:
    def test_make_memo_by_name(self):
        assert isinstance(make_memo("single"), SingleEntryMemo)
        assert isinstance(make_memo("dict"), PerNodeDictMemo)

    def test_make_memo_unknown_name(self):
        with pytest.raises(ValueError):
            make_memo("magic")
        # The compiled table builds its never-cleared memo directly: by name
        # it would make a parser whose reset() clears nothing.
        with pytest.raises(ValueError):
            make_memo("persistent")
