"""Observability overhead gates: tracing must not perturb the warm hot loop.

Warm recognition is one small-dict probe per token over the states' edge
dicts; the tracing hooks are designed to cost one contextvar read per *call*
(never per token) when disabled, and one span per traced stage when
sampled.  This benchmark measures exactly that claim on the warm PL/0
workload and gates it:

=================  ==========================================================
row                what is measured
=================  ==========================================================
hot loop           ``CompiledParser._walk`` called directly — the raw
                   warm loop with no wrapper at all (the baseline)
tracing disabled   ``CompiledParser.recognize`` — the public path, which now
                   reads the trace contextvar once per call (gate: ≤ 5%
                   over the baseline)
tracing sampled    the same call wrapped in an enabled ``Tracer.request``
                   with 1-in-8 sampling (gate: ≤ 15% over the baseline)
=================  ==========================================================

Full mode also drives a tracing :class:`~repro.serve.ParseService` through
a small throughput workload and gates the *accounting*: ``stats()`` must
expose p50/p95/p99 request latency, and each sampled request's stage spans
(fingerprint + table + recognize) must sum to within 20% of the request's
measured end-to-end duration — spans that don't add up aren't telling the
truth about where the time went.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke job) swaps the
wall-clock ratio gates for deterministic ones — exact sampled-trace
counts, histogram observation counts, stage presence — because
sub-millisecond ratios on shared runners are noise.  Set
``REPRO_BENCH_JSON=<path>`` to write the rows (CI uploads
``BENCH_obs.json``).
"""

import asyncio
import os

from repro.bench import emit_json, format_table, time_call
from repro.compile import CompiledParser, GrammarTable
from repro.grammars import pl0_grammar
from repro.obs import Observer, Tracer
from repro.serve import ParseService
from repro.workloads import pl0_tokens

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SIZE = 400 if QUICK else 4_000
#: Full-mode gates: the public recognize path with tracing disabled may cost
#: at most 5% over the bare hot loop; fully wired sampled tracing at most 15%.
MAX_DISABLED_OVERHEAD = 1.05
MAX_SAMPLED_OVERHEAD = 1.15
#: Sampled-request stage spans must cover 80–100% of the measured request.
MIN_STAGE_COVERAGE = 0.80
#: Median-of-N keeps microsecond-scale warm walks out of timer noise.
WARM_ROUNDS = 9
SAMPLE_EVERY = 8
REQUESTS = 8 if QUICK else 64


def _warm_parser(tokens):
    table = GrammarTable(pl0_grammar().language())
    parser = CompiledParser(table=table)
    assert parser.recognize(tokens) is True  # cold: derive + link + repack
    accepted, hits, fallbacks = parser.recognize_with_stats(tokens)
    assert accepted and fallbacks == 0 and hits == len(tokens)
    return table, parser


def measure_hot_loop(tokens):
    """The three timed rows plus the deterministic sampled-tracing checks."""
    table, parser = _warm_parser(tokens)
    baseline = time_call(lambda: parser._walk(tokens), repeats=WARM_ROUNDS)
    disabled = time_call(lambda: parser.recognize(tokens), repeats=WARM_ROUNDS)

    tracer = Tracer(enabled=True, sample_every=SAMPLE_EVERY)

    def sampled_call():
        with tracer.request("recognize"):
            parser.recognize(tokens)

    sampled = time_call(sampled_call, repeats=WARM_ROUNDS)

    # Deterministic gates (always on): the tracer saw every request, sampled
    # exactly 1-in-N of them, and each sampled trace carries the recognize
    # span — the instrumentation is wired, whatever the clock says.
    for _ in range(SAMPLE_EVERY * 2):
        sampled_call()
    expected_sampled = tracer.seen // SAMPLE_EVERY
    assert tracer.sampled == expected_sampled, (
        "sampled {} of {} requests (expected {})".format(
            tracer.sampled, tracer.seen, expected_sampled
        )
    )
    for trace in tracer.traces():
        totals = trace.stage_totals()
        assert "recognize" in totals and totals["recognize"] > 0

    return {
        "workload": "pl0",
        "tokens": len(tokens),
        "baseline_s": baseline,
        "disabled_s": disabled,
        "sampled_s": sampled,
        "disabled_overhead": disabled / max(baseline, 1e-12),
        "sampled_overhead": sampled / max(baseline, 1e-12),
    }


def measure_service_accounting(tokens):
    """Drive a tracing service and return its latency/trace accounting."""
    grammar = pl0_grammar()
    observer = Observer(tracing=True)
    coverages = []
    with ParseService(workers=2, observer=observer) as service:

        async def drive():
            await service.recognize(grammar, tokens)  # cold request warms the table
            for index in range(REQUESTS):
                # Vary the stream so coalescing never folds two requests.
                await service.recognize(grammar, list(tokens) + [tokens[index % 7]])

        asyncio.run(drive())
        stats = service.stats()
        summary = stats["latency"]["request_latency_ns"]
        digest = stats["traces"]
        for trace in observer.tracer.traces()[1:]:  # skip the cold compile trace
            covered = sum(
                ns
                for name, ns in trace.stage_totals().items()
                if name in ("fingerprint", "table", "recognize")
            )
            coverages.append(covered / max(trace.duration_ns, 1))

    # Deterministic accounting gates, valid in quick and full mode alike.
    assert summary["count"] == REQUESTS + 1
    for quantile in ("p50", "p95", "p99"):
        assert quantile in summary and summary[quantile] > 0
    assert summary["p50"] <= summary["p95"] <= summary["p99"]
    assert digest["seen"] == REQUESTS + 1 and digest["sampled"] == REQUESTS + 1
    for stage_name in ("fingerprint", "table", "recognize"):
        assert stage_name in digest["stages"], stage_name

    return {
        "workload": "pl0-serve",
        "requests": REQUESTS + 1,
        "p50_ns": summary["p50"],
        "p95_ns": summary["p95"],
        "p99_ns": summary["p99"],
        "min_stage_coverage": min(coverages),
        "mean_stage_coverage": sum(coverages) / len(coverages),
    }


def test_obs_overhead(run_once):
    tokens = pl0_tokens(SIZE, seed=1)
    hot = measure_hot_loop(tokens)
    accounting = measure_service_accounting(tokens)

    print()
    print(
        format_table(
            [
                "row",
                "tokens",
                "time (ms)",
                "vs baseline",
            ],
            [
                ["hot loop", hot["tokens"], hot["baseline_s"] * 1e3, "1.00x"],
                [
                    "tracing disabled",
                    hot["tokens"],
                    hot["disabled_s"] * 1e3,
                    "{:.3f}x".format(hot["disabled_overhead"]),
                ],
                [
                    "tracing sampled 1/{}".format(SAMPLE_EVERY),
                    hot["tokens"],
                    hot["sampled_s"] * 1e3,
                    "{:.3f}x".format(hot["sampled_overhead"]),
                ],
            ],
            title="Observability overhead on the warm edge-dict walk"
            + (" [quick]" if QUICK else ""),
        )
    )
    print(
        "serve accounting: p50={:.0f}ns p99={:.0f}ns, stage coverage "
        "min={:.0%} mean={:.0%} over {} requests".format(
            accounting["p50_ns"],
            accounting["p99_ns"],
            accounting["min_stage_coverage"],
            accounting["mean_stage_coverage"],
            accounting["requests"],
        )
    )

    emit_json([hot, accounting], quick=QUICK, size=SIZE)

    # Wall-clock ratio gates run only in full mode; quick mode relies on the
    # deterministic gates asserted inside the measure functions.
    if not QUICK:
        assert hot["disabled_overhead"] <= MAX_DISABLED_OVERHEAD, (
            "disabled tracing costs {:.3f}x over the bare hot loop "
            "(gate {}x)".format(hot["disabled_overhead"], MAX_DISABLED_OVERHEAD)
        )
        assert hot["sampled_overhead"] <= MAX_SAMPLED_OVERHEAD, (
            "sampled tracing costs {:.3f}x over the bare hot loop "
            "(gate {}x)".format(hot["sampled_overhead"], MAX_SAMPLED_OVERHEAD)
        )
        assert accounting["min_stage_coverage"] >= MIN_STAGE_COVERAGE, (
            "stage spans cover only {:.0%} of their request "
            "(gate {:.0%})".format(
                accounting["min_stage_coverage"], MIN_STAGE_COVERAGE
            )
        )

    # One representative configuration under pytest-benchmark's timer: the
    # warm public recognize path (tracing disabled — the common case).
    _table, parser = _warm_parser(tokens)
    run_once(lambda: parser.recognize(tokens))
