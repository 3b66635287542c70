"""ParseService: batch results, table caching, coalescing, CLI, isolation."""

import asyncio
import json
import pickle
from collections import OrderedDict

import pytest

import repro.compile.automaton
import repro.serve.cache
from repro.compile import as_root
from repro.core import DerivativeParser
from repro.core.languages import clone_graph, structural_fingerprint
from repro.grammars import arithmetic_grammar, balanced_parens_grammar, pl0_grammar
from repro.lexer.tokens import Tok
from repro.serve import ParseService, ServiceClosed, TableCache, TableStore
from repro.serve.cli import main as cli_main
from repro.serve.transport import _handle
from repro.workloads import pl0_source, pl0_tokens


@pytest.fixture
def service():
    with ParseService(workers=4) as svc:
        yield svc


def count_fingerprint_walks(monkeypatch):
    """Count every structural fingerprint the cache or a table computes."""
    walks = []

    def counting(root):
        walks.append(root)
        return structural_fingerprint(root)

    monkeypatch.setattr(repro.serve.cache, "structural_fingerprint", counting)
    monkeypatch.setattr(repro.compile.automaton, "structural_fingerprint", counting)
    return walks


def corrupt(stream, at=10):
    """A copy of ``stream`` whose tail is replaced by an earlier slice."""
    bad = list(stream)
    bad[at:] = bad[: at // 2]
    return bad


class TestBatchAPIs:
    def test_recognize_many_matches_sequential(self, service):
        grammar = pl0_grammar()
        streams = [pl0_tokens(150, seed=s) for s in range(6)]
        streams.append(corrupt(streams[0]))
        sequential = DerivativeParser(grammar.to_language())
        expected = [sequential.recognize(s) for s in streams]
        assert service.recognize_many(grammar, streams) == expected
        # The batch ran on one cached table; re-batching is a pure hit.
        assert service.recognize_many(grammar, streams) == expected
        assert service.metrics.get("table_misses") == 1
        assert service.metrics.get("table_hits") >= 1

    def test_parse_many_trees_and_failure_positions_match_sequential(self, service):
        grammar = pl0_grammar()
        streams = [pl0_tokens(120, seed=s) for s in range(4)]
        bad = corrupt(streams[1])
        sequential = DerivativeParser(grammar.to_language())
        outcomes = service.parse_many(grammar, streams + [bad])
        for stream, outcome in zip(streams, outcomes):
            assert outcome.ok
            assert outcome.tree == sequential.parse(stream)
        failed = outcomes[-1]
        assert not failed.ok
        with pytest.raises(Exception) as excinfo:
            sequential.parse(bad)
        assert failed.failure_position == excinfo.value.position

    def test_results_preserve_batch_order(self, service):
        grammar = balanced_parens_grammar()
        streams = [
            [Tok("("), Tok(")")],
            [Tok("(")],
            [Tok("("), Tok("("), Tok(")"), Tok(")")],
            [Tok(")")],
        ]
        assert service.recognize_many(grammar, streams) == [True, False, True, False]

    def test_caller_grammar_is_never_touched(self, service):
        # The service clones: no table is anchored on (and no derivation
        # cache ever lands in) the caller's own graph.  Built inline —
        # the lru_cached evaluation grammars are shared across the whole
        # test run and other suites legitimately cache on them.
        from repro.core import Ref, reachable_nodes, token
        from repro.core.languages import Alt, Cat

        grammar = Ref("E")
        grammar.set((token("a") + grammar) | token("a"))
        stream = [Tok("a"), Tok("a"), Tok("a")]
        assert service.recognize_many(grammar, [stream]) == [True]
        assert service.parse_many(grammar, [stream])[0].ok
        for node in reachable_nodes(grammar):
            assert node.compiled_table is None
            assert node.memo_table is None
            assert node.memo_epoch == -1
            assert node.null_parse_epoch == -1
            if isinstance(node, (Alt, Cat, Ref)):
                # Leaves are born final; a composite only gains a state
                # when an analysis runs on it, which must be on a clone.
                assert node.state is None


class TestTableCache:
    def test_structurally_identical_grammars_share_one_table(self, service):
        streams = [pl0_tokens(60)]
        service.recognize_many(pl0_grammar(), streams)
        # A structurally identical but distinct grammar object: same
        # fingerprint, so the second call must hit.
        other = pl0_grammar()
        service.recognize_many(other, streams)
        assert service.metrics.get("table_misses") == 1
        assert service.metrics.get("table_hits") == 1

    def test_lru_eviction_is_bounded_and_counted(self):
        with ParseService(workers=2, table_cache_size=2) as svc:
            grammars = [pl0_grammar(), arithmetic_grammar(), balanced_parens_grammar()]
            for grammar in grammars:
                svc.table_for(grammar)
            assert len(svc.tables) == 2
            assert svc.metrics.get("tables_evicted") == 1
            # The oldest (pl0) was evicted: asking again recompiles.
            svc.table_for(pl0_grammar())
            assert svc.metrics.get("table_misses") == 4

    def test_a_grammar_is_fingerprinted_once(self, service, monkeypatch):
        walks = count_fingerprint_walks(monkeypatch)
        grammar = pl0_grammar()
        entry = service.table_for(grammar)
        assert len(walks) == 1  # the cold lookup's key, handed to the table
        assert entry.table.fingerprint == structural_fingerprint(as_root(grammar))
        service.table_for(grammar)
        service.recognize_many(grammar, [pl0_tokens(30)])
        assert len(walks) == 1  # warm lookups walk nothing

    def test_a_worker_registration_reuses_the_dispatchers_fingerprint(
        self, tmp_path, service, monkeypatch
    ):
        root = as_root(pl0_grammar())
        fingerprint = structural_fingerprint(root)
        store = TableStore(str(tmp_path / "tables"))
        blob = pickle.dumps(clone_graph(root))  # what the dispatcher sends
        message = ("reg", 0, fingerprint, blob, store.path_for(fingerprint))
        walks = count_fingerprint_walks(monkeypatch)
        grammars = {}
        reply = _handle(message, service, store, grammars, OrderedDict())
        assert reply == {"pure": True, "warm_loaded": False}
        assert walks == []
        entry = service.table_for(grammars[fingerprint])
        assert entry.table.fingerprint == fingerprint
        assert walks == []

    def test_eviction_does_not_invalidate_held_entry(self):
        cache = TableCache(capacity=1)
        entry = cache.get_or_compile(pl0_grammar())
        cache.get_or_compile(arithmetic_grammar())  # evicts the pl0 entry
        assert cache.peek(entry.fingerprint) is None
        # The held entry keeps working after eviction.
        from repro.compile import CompiledParser

        assert CompiledParser(table=entry.table).recognize(pl0_tokens(60)) is True


class TestWarmStart:
    """warm_start: serialized tables preloaded into the cache (satellite API)."""

    @staticmethod
    def saved_document(tmp_path, grammar, tokens, name="warm.table.json"):
        """Save a warmed table for ``grammar``; returns (path, document fp)."""
        from repro.compile import CompiledParser, GrammarTable, save_table

        table = GrammarTable(grammar)

        CompiledParser(table=table).recognize(tokens)
        path = str(tmp_path / name)
        save_table(table, path)
        return path, table.fingerprint

    def test_warm_start_preloads_and_first_request_hits(self, tmp_path, service):
        tokens = pl0_tokens(200, seed=0)
        path, _ = self.saved_document(tmp_path, pl0_grammar(), tokens)
        assert service.warm_start([path], pl0_grammar()) == 1
        assert service.metrics.get("tables_warm_started") == 1
        # The preloaded table serves the first request as a pure hit …
        assert service.recognize_many(pl0_grammar(), [tokens]) == [True]
        assert service.metrics.get("table_hits") == 1
        assert service.metrics.get("table_misses") == 0
        # … with zero derivations: the walk stayed on the restored table.
        assert service.stats()["engine"]["derive_calls"] == 0

    def test_warm_start_caches_under_the_lookup_fingerprint(self, tmp_path, service):
        # A mapping resolver speaks the document's fingerprint; a request
        # right after the preload must be a pure table hit under it.
        tokens = pl0_tokens(120, seed=3)
        path, document_fp = self.saved_document(tmp_path, pl0_grammar(), tokens)
        assert service.warm_start([path], {document_fp: pl0_grammar()}) == 1
        assert service.recognize_many(pl0_grammar(), [tokens]) == [True]
        assert service.metrics.get("table_hits") == 1
        assert service.metrics.get("table_misses") == 0

    def test_warm_start_without_a_grammar_fails_loudly(self, tmp_path, service):
        path, _ = self.saved_document(tmp_path, pl0_grammar(), pl0_tokens(60, seed=0))
        with pytest.raises(KeyError):
            service.warm_start([path], {})

    def test_warm_start_skips_grammars_already_cached(self, tmp_path, service):
        tokens = pl0_tokens(80, seed=1)
        path, _ = self.saved_document(tmp_path, pl0_grammar(), tokens)
        service.recognize_many(pl0_grammar(), [tokens])  # live compile first
        assert service.warm_start([path], pl0_grammar()) == 0
        assert service.metrics.get("tables_warm_started") == 0
        assert service.metrics.get("table_misses") == 1


class TestAsyncFrontDoor:
    def test_parse_coalesces_identical_inflight_requests(self, service):
        grammar = pl0_grammar()
        tokens = tuple(pl0_tokens(200, seed=3))

        async def fan_out():
            return await asyncio.gather(*(service.parse(grammar, tokens) for _ in range(6)))

        outcomes = asyncio.run(fan_out())
        assert all(outcome.ok for outcome in outcomes)
        first_tree = outcomes[0].tree
        assert all(outcome.tree == first_tree for outcome in outcomes)
        assert service.metrics.get("coalesced_requests") >= 1
        assert service.metrics.get("parse_requests") + service.metrics.get(
            "coalesced_requests"
        ) == 6

    def test_leader_cancellation_does_not_poison_followers(self, service):
        # Cancelling the first (leading) request must not fan its
        # CancelledError out to coalesced followers: the shared future is
        # completed by the executor job, independent of the leader.
        grammar = pl0_grammar()
        tokens = tuple(pl0_tokens(400, seed=9))

        async def run():
            leader = asyncio.ensure_future(service.parse(grammar, tokens))
            await asyncio.sleep(0)  # let the leader register in flight
            follower = asyncio.ensure_future(service.parse(grammar, tokens))
            await asyncio.sleep(0)
            leader.cancel()
            outcome = await follower
            assert outcome.ok
            try:
                await leader
            except asyncio.CancelledError:
                pass  # the leader itself is allowed to observe cancellation

        asyncio.run(run())

    def test_recognize_async_and_distinct_inputs_not_coalesced(self, service):
        grammar = pl0_grammar()

        async def two_different():
            return await asyncio.gather(
                service.recognize(grammar, tuple(pl0_tokens(80, seed=1))),
                service.recognize(grammar, tuple(pl0_tokens(80, seed=2))),
            )

        assert asyncio.run(two_different()) == [True, True]


class TestEditFrontDoor:
    def test_async_edit_applies_and_coalesces_retries(self, service):
        from repro.workloads import value_edit_at

        tokens = pl0_tokens(300, seed=6)
        session = service.open_session(pl0_grammar(), checkpoint_every=32)
        session.feed_all(tokens)
        edit = value_edit_at(tokens, 150, seed=0)

        async def retry_storm():
            return await asyncio.gather(
                *(
                    service.edit(session, edit.start, edit.end, edit.tokens)
                    for _ in range(5)
                )
            )

        results = asyncio.run(retry_storm())
        # One application shared by every retry: the edit was not
        # double-applied, and all callers saw the same result.
        assert service.metrics.get("edits_applied") == 1
        assert service.metrics.get("edit_requests") == 1
        assert service.metrics.get("coalesced_requests") == 4
        assert {r.refed_tokens for r in results} == {results[0].refed_tokens}
        assert session.accepts()

    def test_sync_edit_session_resolves_by_id(self, service):
        session = service.open_session(pl0_grammar())
        session.feed_all(pl0_tokens(100, seed=7))
        result = service.edit_session(
            session.session_id, 5, 6, [list(session.tokens)[5]]
        )
        assert result.length == session.position
        assert service.metrics.get("edit_requests") == 1

    def test_edit_of_unknown_session_raises(self, service):
        from repro.serve import SessionError

        with pytest.raises(SessionError):
            service.edit_session("m0-s999", 0, 0, [])

        async def one():
            return await service.edit("m0-s999", 0, 0, [])

        with pytest.raises(SessionError):
            asyncio.run(one())


class TestLifecycle:
    def test_closed_service_raises(self):
        service = ParseService(workers=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.recognize_many(pl0_grammar(), [[]])
        service.close()  # idempotent

    def test_stats_shape(self, service):
        service.recognize_many(pl0_grammar(), [pl0_tokens(60)])
        service.parse_many(pl0_grammar(), [pl0_tokens(60)])
        stats = service.stats()
        assert stats["tables_cached"] == 1
        assert stats["service"]["table_hit_rate"] > 0
        assert stats["engine"]["derive_calls"] > 0
        assert stats["workers"] == 4


class TestCli:
    def test_cli_recognizes_files_and_reports_stats(self, tmp_path, capsys):
        good = tmp_path / "good.pl0"
        good.write_text(pl0_source(120, seed=1))
        assert cli_main(["--grammar", "pl0", str(good)]) == 0
        # Captured stdout is not a TTY, so every line is one JSON event.
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        results = [event for event in events if event["event"] == "result"]
        assert len(results) == 1 and results[0]["verdict"] == "ok"
        summary = next(event for event in events if event["event"] == "summary")
        assert summary["inputs"] == 1 and summary["tok_per_s"] >= 0

    def test_cli_parse_mode_reports_failure_and_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pl0"
        bad.write_text("var x; begin x := end.")
        assert cli_main(["--grammar", "pl0", "--parse", str(bad)]) == 1
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        verdicts = [e["verdict"] for e in events if e["event"] == "result"]
        assert verdicts and verdicts[0].startswith("parse error")
