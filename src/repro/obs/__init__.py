"""repro.obs — request tracing, latency histograms and metrics exposition.

The engine's :class:`~repro.core.metrics.Metrics` reproduces the paper's
evaluation by *counting* (nullable? calls, memo entries, dense hits); this
package adds the *time* domain a serving system needs, designed so the
hot loops PR 6 won stay hot:

* :mod:`~repro.obs.trace` — contextvar-scoped request traces with named
  stage spans (``perf_counter_ns``), off by default, deterministically
  sampled when on, retained in a bounded ring with a slow-request log.
  Cost when disabled: one contextvar read per *call*, never per token.
* :mod:`~repro.obs.histogram` — fixed-log-bucket :class:`Histogram`
  (HdrHistogram-style int bucketing, quantiles within one bucket's ≤ 25%
  relative error), sharded per worker and folded with
  :meth:`Histogram.merge` exactly like ``Metrics.merge``.
* :mod:`~repro.obs.logging` — one-event-per-line structured logging,
  JSON lines for machines and ``key=value`` for TTYs.
* :mod:`~repro.obs.exposition` — Prometheus text format and JSON
  snapshots of :meth:`repro.serve.ParseService.stats`, plus the strict
  parser the CI smoke job validates the exposition with.
* :mod:`~repro.obs.observer` — the :class:`Observer` bundle the serve
  layer takes as one knob.

Quickstart::

    from repro.obs import Observer, StructuredLogger
    from repro.serve import ParseService
    import sys

    observer = Observer(tracing=True, sample_every=8, slow_threshold_ms=50,
                        logger=StructuredLogger.for_stream(sys.stderr))
    service = ParseService(workers=4, observer=observer)
    # ... serve traffic ...
    service.stats()["latency"]["request_latency_ns"]["p99"]
    print(service.exposition())            # Prometheus text format

``benchmarks/bench_obs_overhead.py`` gates the overhead: disabled tracing
within 5% of the bare hot loop, fully traced within 15%.
"""

from .exposition import json_snapshot, parse_prometheus, prometheus_exposition
from .histogram import Histogram
from .logging import NULL_LOGGER, StructuredLogger
from .observer import Observer
from .trace import Span, Trace, Tracer, activated, current_trace, stage

__all__ = [
    "Observer",
    "Histogram",
    "Tracer",
    "Trace",
    "Span",
    "current_trace",
    "stage",
    "activated",
    "StructuredLogger",
    "NULL_LOGGER",
    "prometheus_exposition",
    "parse_prometheus",
    "json_snapshot",
]
