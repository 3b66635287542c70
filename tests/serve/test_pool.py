"""PooledParseService: sharding, parity, warm starts, crash recovery, stats."""

import json
import os
import signal
import threading
import time

import pytest

from repro.compile import as_root
from repro.core import DerivativeParser
from repro.core.languages import structural_fingerprint
from repro.grammars import arithmetic_grammar, balanced_parens_grammar, pl0_grammar
from repro.lexer.tokens import Tok
from repro.obs.exposition import parse_prometheus
from repro.serve import (
    ParseService,
    PooledParseService,
    ServiceClosed,
    TableStore,
    WorkerCrashed,
)
from repro.serve.cli import main as cli_main
from repro.serve.pool import HashRing, _chunk_bounds
from repro.workloads import pl0_source, pl0_tokens


def corrupt(stream, at=10):
    """A copy of ``stream`` whose tail is replaced by an earlier slice."""
    bad = list(stream)
    bad[at:] = bad[: at // 2]
    return bad


def wait_until(predicate, timeout=10.0, interval=0.01):
    """Poll ``predicate`` until it holds (asynchronous pool bookkeeping)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def pool():
    with PooledParseService(workers=2, replication=2) as pooled:
        yield pooled


class TestHashRing:
    def test_shard_is_deterministic_and_distinct(self):
        ring = HashRing(4)
        fingerprint = "a" * 64
        first = ring.shard(fingerprint, 3)
        assert first == ring.shard(fingerprint, 3)
        assert len(set(first)) == 3
        assert all(0 <= worker < 4 for worker in first)

    def test_replication_is_capped_at_worker_count(self):
        assert len(HashRing(2).shard("b" * 64, 5)) == 2

    def test_every_worker_serves_some_grammar(self):
        ring = HashRing(4)
        primaries = {ring.shard(format(n, "064x"), 1)[0] for n in range(200)}
        assert primaries == {0, 1, 2, 3}

    def test_assignments_survive_ring_growth(self):
        # Consistent hashing: growing the fleet only ever *moves* a grammar
        # onto new workers; most primaries stay put.
        fingerprints = [format(n, "064x") for n in range(100)]
        small, large = HashRing(4), HashRing(5)
        moved = sum(
            small.shard(fingerprint, 1) != large.shard(fingerprint, 1)
            for fingerprint in fingerprints
        )
        assert moved < 50

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing(0)


class TestChunkBounds:
    @pytest.mark.parametrize(
        "streams,workers,expected",
        [
            (10, 3, ((0, 4), (4, 7), (7, 10))),
            (3, 8, ((0, 1), (1, 2), (2, 3))),
            (8, 2, ((0, 4), (4, 8))),
            (1, 4, ((0, 1),)),
        ],
    )
    def test_bounds_are_contiguous_and_near_even(self, streams, workers, expected):
        assert _chunk_bounds(streams, workers) == expected

    def test_bounds_cover_every_stream_exactly_once(self):
        for streams in range(1, 20):
            for workers in range(1, 6):
                bounds = _chunk_bounds(streams, workers)
                assert bounds[0][0] == 0 and bounds[-1][1] == streams
                assert all(lo < hi for lo, hi in bounds)
                assert all(
                    bounds[index][1] == bounds[index + 1][0]
                    for index in range(len(bounds) - 1)
                )


class TestBatchParity:
    def test_recognize_many_matches_in_process(self, pool):
        grammar = pl0_grammar()
        streams = [pl0_tokens(150, seed=seed) for seed in range(6)]
        streams.append(corrupt(streams[0]))
        oracle = DerivativeParser(grammar.to_language())
        expected = [oracle.recognize(stream) for stream in streams]
        assert pool.recognize_many(grammar, streams) == expected
        # Replays hit the workers' warm tables; answers never drift.
        assert pool.recognize_many(grammar, streams) == expected

    def test_parse_many_trees_and_failure_positions_match(self, pool):
        grammar = pl0_grammar()
        streams = [pl0_tokens(120, seed=seed) for seed in range(4)]
        bad = corrupt(streams[1])
        oracle = DerivativeParser(grammar.to_language())
        outcomes = pool.parse_many(grammar, streams + [bad])
        for stream, outcome in zip(streams, outcomes):
            assert outcome.ok
            assert outcome.tree == oracle.parse(stream)
        failed = outcomes[-1]
        assert not failed.ok
        with pytest.raises(Exception) as excinfo:
            oracle.parse(bad)
        assert failed.failure_position == excinfo.value.position

    def test_results_preserve_batch_order(self, pool):
        grammar = balanced_parens_grammar()
        streams = [
            [Tok("("), Tok(")")],
            [Tok("(")],
            [Tok("("), Tok("("), Tok(")"), Tok(")")],
            [Tok(")")],
        ]
        assert pool.recognize_many(grammar, streams) == [True, False, True, False]

    def test_empty_batch_short_circuits(self, pool):
        assert pool.recognize_many(pl0_grammar(), []) == []
        assert pool.parse_many(pl0_grammar(), []) == []

    def test_two_grammars_share_one_fleet(self, pool):
        pl0_streams = [pl0_tokens(80, seed=seed) for seed in range(3)]
        paren_streams = [[Tok("("), Tok(")")], [Tok(")")]]
        assert pool.recognize_many(pl0_grammar(), pl0_streams) == [True] * 3
        assert pool.recognize_many(balanced_parens_grammar(), paren_streams) == [
            True,
            False,
        ]
        assert pool.stats()["pool"]["grammars"] == 2

    def test_value_sensitive_streams_round_trip(self, pool):
        # Token values survive the wire: trees carry the original values,
        # not just the kinds the recognition fast path ships.
        grammar = pl0_grammar()
        stream = pl0_tokens(60, seed=5)
        outcome = pool.parse_many(grammar, [stream])[0]
        assert outcome.ok
        assert outcome.tree == DerivativeParser(grammar.to_language()).parse(stream)


class TestPreparedBatch:
    def test_prepared_batch_reuses_encodings(self, pool):
        grammar = pl0_grammar()
        streams = [pl0_tokens(100, seed=seed) for seed in range(4)]
        prepared = pool.prepare(grammar, streams)
        assert len(prepared) == 4
        expected = pool.recognize_many(grammar, streams)
        assert pool.recognize_many(grammar, prepared) == expected
        assert pool.recognize_many(grammar, prepared) == expected
        # One cached encoding for the (rec, chunking, purity) shape.
        assert len(prepared._payloads) == 1
        outcomes = pool.parse_many(grammar, prepared)
        assert [outcome.ok for outcome in outcomes] == expected
        assert len(prepared._payloads) == 2

    def test_prepared_batch_is_grammar_bound(self, pool):
        prepared = pool.prepare(pl0_grammar(), [pl0_tokens(40, seed=0)])
        with pytest.raises(ValueError):
            pool.recognize_many(arithmetic_grammar(), prepared)


class TestLifecycle:
    def test_closed_pool_raises_and_close_is_idempotent(self):
        pool = PooledParseService(workers=1)
        pool.close()
        with pytest.raises(ServiceClosed):
            pool.recognize_many(pl0_grammar(), [[]])
        with pytest.raises(ServiceClosed):
            pool.stats()
        pool.close()  # idempotent

    def test_invalid_configuration_is_rejected(self):
        with pytest.raises(ValueError):
            PooledParseService(workers=0)
        with pytest.raises(ValueError):
            PooledParseService(workers=1, replication=0)

    def test_worker_pids_are_live_children(self, pool):
        pids = pool.worker_pids()
        assert len(pids) == 2
        for pid in pids:
            os.kill(pid, 0)  # signal 0: existence check only


class TestWarmStartFlow:
    def test_first_batch_persists_the_table(self, tmp_path):
        store = TableStore(str(tmp_path / "tables"))
        grammar = pl0_grammar()
        fingerprint = structural_fingerprint(as_root(grammar))
        with PooledParseService(workers=2, store=store) as pool:
            assert pool.recognize_many(grammar, [pl0_tokens(80, seed=0)]) == [True]
            # The persist round-trips through a worker asynchronously.
            assert wait_until(lambda: store.has(fingerprint))
            assert wait_until(lambda: pool.metrics.get("tables_persisted") == 1)
            # Later batches do not re-request it.
            pool.recognize_many(grammar, [pl0_tokens(80, seed=1)])
            assert pool.metrics.get("tables_persisted") == 1

    def test_seeded_fleet_cold_starts_with_zero_derivations(self, tmp_path):
        store_root = str(tmp_path / "tables")
        grammar = pl0_grammar()
        streams = [pl0_tokens(200, seed=seed) for seed in range(4)]
        streams.append(corrupt(streams[2]))
        with PooledParseService(workers=2, store=store_root) as seeder:
            seeder.seed_store(grammar, streams)

        oracle = DerivativeParser(grammar.to_language())
        expected = [oracle.recognize(stream) for stream in streams]
        with PooledParseService(workers=2, replication=2, store=store_root) as fleet:
            # Every worker on the shard warm-loads from the seeded store.
            assert fleet.preload([grammar]) == 2
            assert fleet.recognize_many(grammar, streams) == expected
            stats = fleet.stats()
            assert stats["service"]["tables_warm_started"] == 2
            assert stats["engine"]["derive_calls"] == 0
            assert stats["engine"]["dense_fallbacks"] == 0
            assert stats["engine"]["dense_hits"] > 0

    def test_preload_without_store_registers_cold(self, pool):
        assert pool.preload([pl0_grammar(), arithmetic_grammar()]) == 0
        assert pool.recognize_many(pl0_grammar(), [pl0_tokens(60, seed=0)]) == [True]
        assert pool.stats()["pool"]["grammars"] == 2


class TestCrashRecovery:
    def test_killed_worker_respawns_warm_and_answers_match(self, tmp_path):
        grammar = pl0_grammar()
        streams = [pl0_tokens(150, seed=seed) for seed in range(4)]
        streams.append(corrupt(streams[0]))
        oracle = DerivativeParser(grammar.to_language())
        expected = [oracle.recognize(stream) for stream in streams]
        with PooledParseService(
            workers=2, replication=2, store=str(tmp_path / "tables")
        ) as pool:
            assert pool.recognize_many(grammar, streams) == expected
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # The very next batch rides the respawn: the dispatcher
            # re-registers the shard (warm from the store when persisted)
            # and resends anything the dead process held.
            assert pool.recognize_many(grammar, streams) == expected
            assert wait_until(lambda: pool.metrics.get("workers_respawned") >= 1)
            assert wait_until(lambda: pool.worker_pids()[0] != victim)
            assert pool.recognize_many(grammar, streams) == expected

    def test_kill_mid_batch_still_completes(self, tmp_path):
        grammar = pl0_grammar()
        streams = [pl0_tokens(300, seed=seed) for seed in range(8)]
        with PooledParseService(
            workers=2, replication=2, store=str(tmp_path / "tables")
        ) as pool:
            # Seed the store over the whole workload so the respawned
            # worker warm-loads instead of re-deriving its chunk cold.
            pool.seed_store(grammar, streams)
            pool.preload([grammar])
            big = streams * 8
            results = {}

            def run():
                results["answers"] = pool.recognize_many(grammar, big)

            worker = threading.Thread(target=run)
            worker.start()
            time.sleep(0.01)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            worker.join(timeout=120)
            assert not worker.is_alive()
            assert results["answers"] == [True] * len(big)
            assert wait_until(lambda: pool.metrics.get("workers_respawned") >= 1)

    def test_retry_budget_exhaustion_surfaces_worker_crashed(self):
        grammar = pl0_grammar()
        with PooledParseService(workers=2, replication=2, max_retries=0) as pool:
            pool.recognize_many(grammar, [pl0_tokens(30, seed=0)])  # register
            # Tree extraction runs on the workers' interpreted engines: each
            # worker's chunk of 2 x 2,000 tokens takes far longer than the
            # kill below, which fires as soon as the batch is dispatched.
            streams = [pl0_tokens(2000, seed=seed) for seed in range(4)]
            dispatched = pool.metrics.get("pool_dispatches")
            failures = {}

            def run():
                try:
                    pool.parse_many(grammar, streams)
                except Exception as exc:  # noqa: BLE001 - captured for assert
                    failures["error"] = exc

            worker = threading.Thread(target=run)
            worker.start()
            assert wait_until(lambda: pool.metrics.get("pool_dispatches") > dispatched)
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            worker.join(timeout=120)
            assert not worker.is_alive()
            # With a zero retry budget the in-flight request fails loudly
            # instead of being resent forever.
            assert isinstance(failures.get("error"), WorkerCrashed)


class TestFleetStats:
    def test_stats_fold_every_worker(self, pool):
        grammar = pl0_grammar()
        streams = [pl0_tokens(100, seed=seed) for seed in range(6)]
        pool.recognize_many(grammar, streams)
        pool.parse_many(grammar, streams[:2])
        stats = pool.stats()
        # Both workers served a chunk and cached the shard's table.
        assert stats["workers"] == 2
        assert stats["tables_cached"] == 2
        # The inner services meter per stream; the fold reassembles the
        # batch totals regardless of how the chunks landed.
        assert stats["service"]["recognize_requests"] == 6
        assert stats["service"]["parse_requests"] == 2
        assert stats["service"]["pool_dispatches"] == 4
        assert stats["engine"]["derive_calls"] > 0
        per_worker = stats["pool"]["per_worker"]
        assert [entry["index"] for entry in per_worker] == [0, 1]
        assert all(entry["pid"] for entry in per_worker)
        assert all(entry["tables_cached"] == 1 for entry in per_worker)

    def test_latency_histograms_cover_dispatcher_and_workers(self, pool):
        pool.recognize_many(pl0_grammar(), [pl0_tokens(100, seed=0)] * 4)
        latency = pool.stats()["latency"]
        assert latency["request_latency_ns"]["count"] >= 1  # end-to-end
        assert latency["worker_request_latency_ns"]["count"] >= 1  # folded shards

    def test_exposition_parses_and_names_pool_families(self, pool):
        pool.recognize_many(pl0_grammar(), [pl0_tokens(100, seed=0)] * 4)
        text = pool.exposition()
        samples = parse_prometheus(text)
        assert samples["repro_pool_dispatches"] >= 1
        assert any(name.startswith("repro_engine_") for name in samples)
        assert samples["repro_request_latency_ns_count"] >= 1
        assert samples["repro_worker_request_latency_ns_count"] >= 1

    def test_dispatch_and_worker_spans_land_in_traces(self):
        from repro.obs.observer import Observer

        observer = Observer(tracing=True, sample_every=1)
        with PooledParseService(workers=2, observer=observer) as pool:
            pool.recognize_many(pl0_grammar(), [pl0_tokens(60, seed=0)] * 2)
            stages = observer.tracer.digest()["stages"]
        assert "fingerprint" in stages
        assert "dispatch" in stages
        assert "worker" in stages


class TestCli:
    def test_cli_pool_mode_recognizes_files(self, tmp_path, capsys):
        good = tmp_path / "good.pl0"
        good.write_text(pl0_source(120, seed=1))
        assert cli_main(["--grammar", "pl0", "--pool", "2", str(good)]) == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        results = [event for event in events if event["event"] == "result"]
        assert len(results) == 1 and results[0]["verdict"] == "ok"
        summary = next(event for event in events if event["event"] == "summary")
        assert summary["inputs"] == 1
