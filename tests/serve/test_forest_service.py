"""Forest queries through serve: batch/async ops, budgets, sessions, pool.

Pins the serve-layer half of the forest-query contract:

* ``enumerate_many`` / ``sample_many`` return one :class:`ForestOutcome`
  per stream in order, with exact ``int`` counts and trees matching the
  core :class:`~repro.core.forest_query.ForestQuery` directly;
* tree asks are clamped to ``DEFAULT_TREE_BUDGET`` and metered
  (``tree_budget_clamped`` / ``trees_emitted`` /
  ``enumerate_requests`` / ``sample_requests``), by the batch and the
  async surfaces alike;
* stream ``i`` of ``sample_many`` draws from ``random.Random(seed + i)``
  — the arithmetic the pool replays per shard, making pooled results
  byte-identical to in-process ones (asserted here over pickled bytes);
* sessions expose ``trees`` / ``sample`` over their incremental buffer;
* an infinitely ambiguous input ends promptly: trees still come out, and
  ranking and sampling fail with a typed outcome that names the cycle.
"""

import asyncio
import math
import pickle
import time

import pytest

from repro.cfg.grammar import grammar_from_rules
from repro.core import DerivativeParser
from repro.core.errors import ParseError
from repro.core.forest import count_trees, first_tree, iter_trees
from repro.core.forest_query import ForestQuery, TreeSizeRanking
from repro.grammars import catalan_grammar
from repro.lexer.tokens import Tok
from repro.serve import ForestOutcome, ParseService, PooledParseService
from repro.serve.service import DEFAULT_TREE_BUDGET
from repro.workloads import catalan_count, catalan_tokens


@pytest.fixture
def service():
    with ParseService(workers=2) as svc:
        yield svc


def reference_query(leaves, ranking=None):
    parser = DerivativeParser(catalan_grammar().to_language())
    return ForestQuery(parser.parse_forest(catalan_tokens(leaves)), ranking)


class TestEnumerateMany:
    def test_outcomes_match_core_forest_query(self, service):
        grammar = catalan_grammar()
        sizes = (3, 5, 8, 6)
        outcomes = service.enumerate_many(
            grammar, [catalan_tokens(n) for n in sizes], k=4
        )
        assert len(outcomes) == len(sizes)
        for leaves, outcome in zip(sizes, outcomes):
            assert outcome.ok
            assert type(outcome.count) is int
            assert outcome.count == catalan_count(leaves)
            query = reference_query(leaves, "size")
            expected = [tree for _s, tree in query.iter_ranked(4)]
            assert outcome.trees == expected

    def test_failed_stream_reports_parse_error_in_place(self, service):
        grammar = catalan_grammar()
        outcomes = service.enumerate_many(
            grammar, [catalan_tokens(3), [Tok("b")], catalan_tokens(2)], k=2
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert isinstance(failed.error, ParseError)
        assert failed.trees == []
        assert failed.failure_position == failed.error.position

    def test_requires_a_ranking(self, service):
        with pytest.raises(ValueError, match="ranking"):
            service.enumerate_many(catalan_grammar(), [catalan_tokens(3)], ranking=None)
        with pytest.raises(ValueError, match="registered"):
            service.enumerate_many(
                catalan_grammar(), [catalan_tokens(3)], ranking="no-such"
            )

    def test_budget_clamps_unbounded_asks(self, service):
        # Catalan(7) = 429 and Catalan(8) = 1430 trees: both exceed the budget.
        grammar = catalan_grammar()
        budget = DEFAULT_TREE_BUDGET
        assert catalan_count(8) > budget
        for k in (None, budget + 1):
            outcomes = service.enumerate_many(
                grammar, [catalan_tokens(8), catalan_tokens(9)], k=k
            )
            assert [len(o.trees) for o in outcomes] == [budget, budget]
        assert service.metrics.get("tree_budget_clamped") == 4
        assert service.metrics.get("trees_emitted") == 4 * budget
        assert service.metrics.get("enumerate_requests") == 4
        # An in-budget ask is not metered as clamped.
        service.enumerate_many(grammar, [catalan_tokens(8)], k=budget)
        assert service.metrics.get("tree_budget_clamped") == 4


class TestSampleMany:
    def test_stream_index_offsets_the_seed(self, service):
        grammar = catalan_grammar()
        sizes = (5, 6, 7)
        outcomes = service.sample_many(
            grammar, [catalan_tokens(n) for n in sizes], n=6, seed=41
        )
        for index, (leaves, outcome) in enumerate(zip(sizes, outcomes)):
            assert outcome.ok
            assert outcome.count == catalan_count(leaves)
            assert outcome.trees == reference_query(leaves).sample_n(41 + index, 6)

    def test_replay_is_deterministic(self, service):
        grammar = catalan_grammar()
        streams = [catalan_tokens(n) for n in (4, 6)]
        first = service.sample_many(grammar, streams, n=5, seed=9)
        again = service.sample_many(grammar, streams, n=5, seed=9)
        assert first == again
        assert first != service.sample_many(grammar, streams, n=5, seed=10)

    def test_sample_budget_metered(self, service):
        grammar = catalan_grammar()
        outcomes = service.sample_many(
            grammar, [catalan_tokens(6)], n=DEFAULT_TREE_BUDGET + 36, seed=0
        )
        assert len(outcomes[0].trees) == DEFAULT_TREE_BUDGET
        assert service.metrics.get("tree_budget_clamped") == 1
        assert service.metrics.get("sample_requests") == 1
        assert service.metrics.get("trees_emitted") == DEFAULT_TREE_BUDGET

    def test_failed_stream_reports_parse_error(self, service):
        outcomes = service.sample_many(
            catalan_grammar(), [[Tok("b")], catalan_tokens(3)], n=2, seed=0
        )
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, ParseError)
        assert outcomes[1].ok


class TestForestOutcome:
    def test_equality_covers_trees_count_and_error(self):
        ok = ForestOutcome(True, trees=["t"], count=3)
        assert ok == ForestOutcome(True, trees=["t"], count=3)
        assert ok != ForestOutcome(True, trees=["t"], count=4)
        assert ok != ForestOutcome(True, trees=["u"], count=3)
        failed = ForestOutcome(False, error=ValueError("boom"))
        assert failed == ForestOutcome(False, error=ValueError("boom"))
        assert failed != ForestOutcome(False, error=ValueError("other"))
        assert failed != ForestOutcome(False, error=TypeError("boom"))
        assert ok.__eq__(object()) is NotImplemented

    def test_repr_distinguishes_success_and_failure(self):
        assert "2 trees of 14" in repr(ForestOutcome(True, trees=["a", "b"], count=14))
        assert "failed" in repr(ForestOutcome(False, error=ValueError("x")))


class TestAsyncForestOps:
    def test_async_enumerate_and_sample_match_batch(self, service):
        grammar = catalan_grammar()
        tokens = catalan_tokens(6)

        async def run():
            ranked = await service.enumerate(grammar, tokens, k=3)
            sampled = await service.sample(grammar, tokens, n=4, seed=2)
            return ranked, sampled

        ranked, sampled = asyncio.run(run())
        assert ranked == service.enumerate_many(grammar, [tokens], k=3)[0]
        assert sampled == service.sample_many(grammar, [tokens], n=4, seed=2)[0]

    def test_async_ops_meter_trees_like_batches(self, service):
        grammar = catalan_grammar()
        tokens = catalan_tokens(6)
        service.enumerate_many(grammar, [tokens], k=3)
        assert service.metrics.get("trees_emitted") == 3

        async def run():
            await service.enumerate(grammar, tokens, k=3)
            await service.sample(grammar, tokens, n=2, seed=1)

        asyncio.run(run())
        assert service.metrics.get("trees_emitted") == 3 + 3 + 2

        async def unbounded():
            return await service.enumerate(grammar, tokens, k=None)

        # The async ask is clamped like a batch one; 42 < budget trees exist.
        assert len(asyncio.run(unbounded()).trees) == catalan_count(6)
        assert service.metrics.get("tree_budget_clamped") == 1
        assert service.metrics.get("trees_emitted") == 8 + catalan_count(6)

    def test_concurrent_identical_requests_agree(self, service):
        grammar = catalan_grammar()
        tokens = catalan_tokens(7)

        async def run():
            return await asyncio.gather(
                *(service.sample(grammar, tokens, n=3, seed=5) for _ in range(4))
            )

        outcomes = asyncio.run(run())
        assert all(outcome == outcomes[0] for outcome in outcomes)


class TestSessionForestOps:
    def test_session_trees_and_sample_over_the_buffer(self, service):
        session = service.open_session(catalan_grammar())
        session.feed_all(catalan_tokens(6))
        assert session.accepts()
        ranked = session.trees(k=3, ranking="size")
        query = reference_query(6, "size")
        assert ranked == [tree for _s, tree in query.iter_ranked(3)]
        assert session.sample(17, n=5) == reference_query(6).sample_n(17, 5)
        assert session.sample(17, n=5) == session.sample(17, n=5)

    def test_unranked_trees_match_plain_enumeration(self, service):
        session = service.open_session(catalan_grammar())
        session.feed_all(catalan_tokens(5))
        assert len(session.trees()) == catalan_count(5)


class TestPooledForestParity:
    def test_pooled_results_are_byte_identical(self):
        grammar = catalan_grammar()
        streams = [catalan_tokens(n) for n in (3, 6, 9, 4, 7)]
        with ParseService(workers=2) as service:
            expected_enum = service.enumerate_many(grammar, streams, k=5)
            expected_sample = service.sample_many(grammar, streams, n=7, seed=23)
        with PooledParseService(workers=2, replication=2) as pool:
            pooled_enum = pool.enumerate_many(grammar, streams, k=5)
            pooled_sample = pool.sample_many(grammar, streams, n=7, seed=23)
            assert pooled_enum == expected_enum
            assert pooled_sample == expected_sample
            canonical = lambda outcomes: pickle.dumps(
                [(o.trees, o.count) for o in outcomes]
            )
            assert canonical(pooled_enum) == canonical(expected_enum)
            assert canonical(pooled_sample) == canonical(expected_sample)

    def test_pooled_failures_survive_the_wire(self):
        grammar = catalan_grammar()
        streams = [catalan_tokens(4), [Tok("b")]]
        with PooledParseService(workers=2, replication=1) as pool:
            enum = pool.enumerate_many(grammar, streams, k=2)
            sample = pool.sample_many(grammar, streams, n=2, seed=0)
        for outcomes in (enum, sample):
            assert outcomes[0].ok
            assert not outcomes[1].ok
            assert isinstance(outcomes[1].error, ParseError)

    def test_pooled_clamp_happens_dispatcher_side(self):
        grammar = catalan_grammar()
        with PooledParseService(workers=2, replication=1) as pool:
            outcomes = pool.enumerate_many(grammar, [catalan_tokens(8)] * 3, k=None)
            assert all(len(o.trees) == 64 for o in outcomes)
            assert pool.metrics.get("tree_budget_clamped") == 3
            stats = pool.stats()
            # Workers receive the already-clamped concrete ask: the fleet
            # view folds exactly the dispatcher's three clamps, not six.
            assert stats["service"]["tree_budget_clamped"] == 3

    def test_unregistered_ranking_rejected_before_dispatch(self):
        class LocalRanking(TreeSizeRanking):
            name = "local-only"

        with PooledParseService(workers=1, replication=1) as pool:
            with pytest.raises(ValueError, match="registered"):
                pool.enumerate_many(
                    catalan_grammar(), [catalan_tokens(3)], ranking=LocalRanking()
                )


class TestInfiniteAmbiguity:
    def test_infinitely_ambiguous_input_ends_promptly(self):
        # S → S S | a | ε: every a^n has infinitely many parses (ε-cycles).
        # A count pass that re-walks cycles per path triples its cost per
        # token and needs ~40 s at 14 tokens; this one is linear.
        started = time.perf_counter()
        grammar = grammar_from_rules("S", {"S": [["S", "S"], ["a"], []]})
        tokens = catalan_tokens(48)
        forest = DerivativeParser(grammar.to_language()).parse_forest(tokens)
        assert count_trees(forest) == math.inf
        assert isinstance(first_tree(forest), tuple)
        assert len(list(iter_trees(forest, limit=5))) == 5
        with pytest.raises(ValueError, match="cyclic"):
            ForestQuery(forest, "size").iter_ranked(3)
        with pytest.raises(ValueError, match="cyclic"):
            ForestQuery(forest).sample(0)
        with ParseService(workers=1) as service:
            ranked = service.enumerate_many(grammar, [tokens], k=3)
            sampled = service.sample_many(grammar, [tokens], n=2)
        for (outcome,) in (ranked, sampled):
            assert not outcome.ok
            assert outcome.count == math.inf
            assert "cyclic" in str(outcome.error)
        assert time.perf_counter() - started < 10.0
