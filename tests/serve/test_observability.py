"""Observability through the serve stack: stats latency, traces, lifecycle logs.

These tests drive the real :class:`ParseService` with a tracing
:class:`~repro.obs.Observer` and assert the contract PR 7 adds: latency
histograms with p50/p95/p99 in ``stats()``, per-stage span timings in the
trace digest, structured lifecycle events from the cache and the session
manager, the Prometheus/JSON exposition, and the ``ServiceMetrics``
unknown-counter diagnosis.
"""

import asyncio
import io
import json

import pytest

from repro.grammars import pl0_grammar
from repro.obs import Observer, StructuredLogger, parse_prometheus
from repro.serve import ParseService
from repro.serve.cli import main as cli_main
from repro.serve.metrics import ServiceMetrics
from repro.workloads import pl0_source, pl0_tokens


@pytest.fixture
def log_buffer():
    return io.StringIO()


@pytest.fixture
def observed(log_buffer):
    observer = Observer(
        tracing=True, logger=StructuredLogger(stream=log_buffer, clock=lambda: 0.0)
    )
    with ParseService(workers=2, observer=observer) as svc:
        yield svc


def events_of(buffer):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestServiceMetricsValidation:
    def test_unknown_counter_raises_value_error_naming_known(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError) as excinfo:
            metrics.inc("tabel_hits")  # typo'd on purpose
        message = str(excinfo.value)
        assert "tabel_hits" in message
        assert "table_hits" in message  # the known counters are listed
        assert "KeyError" not in message

    def test_get_validates_like_inc(self):
        with pytest.raises(ValueError):
            ServiceMetrics().get("nope")

    def test_known_counters_still_work(self):
        metrics = ServiceMetrics()
        metrics.inc("table_hits", 2)
        assert metrics.get("table_hits") == 2


class TestLatencyStats:
    def test_stats_exposes_request_latency_quantiles(self, observed):
        grammar = pl0_grammar()
        streams = [pl0_tokens(60, seed=s) for s in range(5)]
        for _ in range(4):
            observed.recognize_many(grammar, streams)
        latency = observed.stats()["latency"]
        summary = latency["request_latency_ns"]
        assert summary["count"] == 4
        for quantile in ("p50", "p95", "p99"):
            assert summary[quantile] > 0
        assert summary["p50"] <= summary["p99"]
        assert latency["batch_size"]["max"] == 5

    def test_warm_path_ns_per_token_split(self, observed):
        grammar = pl0_grammar()
        streams = [pl0_tokens(80, seed=s) for s in range(3)]
        observed.recognize_many(grammar, streams)  # cold: dense misses happen
        observed.recognize_many(grammar, streams)  # warm: pure dense walks
        observed.parse_many(grammar, streams)  # interpreted engine, cold per parse
        latency = observed.stats()["latency"]
        assert latency["ns_per_token_dense"]["count"] >= 3
        assert latency["ns_per_token_parse"]["count"] == 3

    def test_edit_tokens_refed_histogram(self, observed):
        grammar = pl0_grammar()
        tokens = pl0_tokens(200, seed=3)
        session = observed.open_session(grammar)
        session.feed_all(tokens)
        observed.edit_session(session, 5, 6, [tokens[5]])
        summary = observed.stats()["latency"]["edit_tokens_refed"]
        assert summary["count"] == 1
        assert summary["max"] <= len(tokens)


class TestTracing:
    def test_batch_trace_records_service_stages(self, observed):
        grammar = pl0_grammar()
        observed.recognize_many(grammar, [pl0_tokens(40, seed=1)] * 3)
        digest = observed.stats()["traces"]
        assert digest["enabled"] is True
        assert digest["seen"] >= 1 and digest["sampled"] >= 1
        for stage_name in ("fingerprint", "table", "recognize"):
            assert stage_name in digest["stages"], stage_name
        assert digest["stages"]["recognize"]["count"] >= 1

    def test_parse_many_records_tree_stage(self, observed):
        grammar = pl0_grammar()
        observed.parse_many(grammar, [pl0_tokens(40, seed=1)] * 2)
        assert "tree" in observed.stats()["traces"]["stages"]

    def test_async_edit_traces_incremental_stages(self, observed):
        grammar = pl0_grammar()
        tokens = pl0_tokens(300, seed=2)
        session = observed.open_session(grammar)
        session.feed_all(tokens)

        async def drive():
            return await observed.edit(session, 10, 11, [tokens[10]])

        result = asyncio.run(drive())
        assert result.refed_tokens >= 1
        stages = observed.stats()["traces"]["stages"]
        assert "session_edit" in stages
        assert "rewind" in stages and "replay" in stages

    def test_stage_spans_sum_close_to_request_duration(self, observed):
        """The spans must account for the request they decompose.

        On the async recognize path the traced stages (fingerprint, table,
        recognize) cover everything but parser construction and context
        plumbing, so their sum must be within 20% of the whole request's
        measured duration.  (The throughput-workload version of this gate
        lives in ``benchmarks/bench_obs_overhead.py``.)
        """
        grammar = pl0_grammar()
        tokens = pl0_tokens(800, seed=5)

        async def drive():
            await observed.recognize(grammar, tokens)  # warm the table
            return await observed.recognize(grammar, list(tokens) + [tokens[-1]])

        asyncio.run(drive())
        traces = observed.obs.tracer.traces()
        trace = traces[-1]
        covered = sum(
            ns
            for name, ns in trace.stage_totals().items()
            if name in ("fingerprint", "table", "recognize")
        )
        assert trace.duration_ns > 0
        assert covered >= 0.8 * trace.duration_ns
        assert covered <= 1.2 * trace.duration_ns

    def test_disabled_observer_keeps_stats_quiet(self):
        with ParseService(workers=1) as svc:
            svc.recognize_many(pl0_grammar(), [pl0_tokens(30, seed=1)])
            digest = svc.stats()["traces"]
            assert digest["enabled"] is False
            assert digest["seen"] == 0 and digest["stages"] == {}
            # Histograms are on regardless of tracing.
            assert svc.stats()["latency"]["request_latency_ns"]["count"] == 1


class TestLifecycleEvents:
    def test_table_and_session_lifecycle_logged(self, observed, log_buffer):
        grammar = pl0_grammar()
        observed.recognize_many(grammar, [pl0_tokens(30, seed=1)])
        session = observed.open_session(grammar)
        session.feed_all(pl0_tokens(30, seed=1))
        checkpoint = session.checkpoint()
        restored = observed.restore_session(checkpoint)
        restored.close()
        session.close()
        names = [event["event"] for event in events_of(log_buffer)]
        assert "table_compiled" in names
        assert names.count("session_opened") == 2
        assert "session_restored" in names
        assert names.count("session_closed") == 2

    def test_table_eviction_logged(self, log_buffer):
        from repro.grammars import arithmetic_grammar, balanced_parens_grammar

        observer = Observer(logger=StructuredLogger(stream=log_buffer))
        with ParseService(workers=1, table_cache_size=1, observer=observer) as svc:
            svc.recognize_many(arithmetic_grammar(), [[]])
            svc.recognize_many(balanced_parens_grammar(), [[]])
        events = events_of(log_buffer)
        evictions = [e for e in events if e["event"] == "table_evicted"]
        assert len(evictions) == 1
        assert evictions[0]["reason"] == "capacity"

    def test_session_eviction_logged(self, log_buffer):
        clock = [0.0]
        observer = Observer(logger=StructuredLogger(stream=log_buffer))
        with ParseService(workers=1, session_idle_ttl=10.0, observer=observer) as svc:
            svc.sessions.clock = lambda: clock[0]
            session = svc.open_session(pl0_grammar())
            session.feed_all(pl0_tokens(20, seed=1))
            clock[0] = 100.0
            assert svc.sessions.sweep() == 1
        events = events_of(log_buffer)
        assert any(e["event"] == "session_evicted" for e in events)

    def test_coalesced_hit_logged(self, observed, log_buffer):
        grammar = pl0_grammar()
        tokens = pl0_tokens(500, seed=7)

        async def drive():
            return await asyncio.gather(
                observed.recognize(grammar, tokens),
                observed.recognize(grammar, tokens),
                observed.recognize(grammar, tokens),
            )

        assert asyncio.run(drive()) == [True, True, True]
        hits = [e for e in events_of(log_buffer) if e["event"] == "coalesced_hit"]
        assert len(hits) == observed.metrics.get("coalesced_requests")
        if hits:  # scheduling may or may not overlap the requests
            assert hits[0]["op"] == "recognize"


class TestExposition:
    def test_service_exposition_parses(self, observed):
        grammar = pl0_grammar()
        observed.recognize_many(grammar, [pl0_tokens(40, seed=1)] * 2)
        samples = parse_prometheus(observed.exposition())
        assert samples["repro_recognize_requests"] == 2
        assert samples["repro_request_latency_ns_count"] == 1
        assert samples["repro_traces_seen"] >= 1

    def test_cli_stats_emits_prometheus_and_json(self, tmp_path, capsys):
        source = tmp_path / "prog.pl0"
        source.write_text(pl0_source(80, seed=4))
        assert cli_main(["--grammar", "pl0", "--stats", "--trace", str(source)]) == 0
        out = capsys.readouterr().out
        prom_lines = [
            line
            for line in out.splitlines()
            if line.startswith("repro_") or line.startswith("# ")
        ]
        samples = parse_prometheus("\n".join(prom_lines))
        assert samples["repro_recognize_requests"] == 1
        snapshot_lines = [
            line for line in out.splitlines() if line.startswith('{"service"')
        ]
        assert len(snapshot_lines) == 1
        stats = json.loads(snapshot_lines[0])
        assert stats["latency"]["request_latency_ns"]["count"] == 1
        assert stats["traces"]["sampled"] >= 1
