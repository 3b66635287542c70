"""Contextvar-based request tracing with sampled, bounded retention.

A **trace** covers one request (a batch call, one async parse, one session
edit) and collects **stage spans** — named wall-clock intervals measured
with :func:`time.perf_counter_ns` — as the request flows through the
stack: ``fingerprint → table → recognize/tree → session_edit`` on the
serve path, ``rewind → replay → splice`` on the incremental path.  The
layers below the service never hold a tracer reference; they call the
module-level :func:`stage`, which reads the active trace out of a
:class:`contextvars.ContextVar` and returns a shared no-op when none is
active.  That keeps the instrumentation cost of the disabled state to one
contextvar read *per call* (never per token — the hot loop of
:meth:`repro.compile.executor.CompiledParser.recognize_with_stats` checks
once per run, which ``benchmarks/bench_obs_overhead.py`` gates at ≤ 5%).

:class:`Tracer` owns the policy: off by default, deterministic 1-in-N
sampling when on, a bounded ring buffer of recent traces (old traces fall
off; memory never grows with traffic), and a slow-request log line —
through the structured logger — for any sampled trace above a threshold.

Spans crossing threads: a worker pool runs request stages on threads the
request's contextvar never propagated to, so pool-dispatching callers wrap
the worker body in :func:`activated` to re-enter the trace (appends to a
trace's span list are atomic under the GIL; concurrent stages from a
fanned-out batch simply all land in the trace).
"""

from __future__ import annotations

import threading
from collections import deque
from contextvars import ContextVar
from time import perf_counter_ns
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["Span", "Trace", "Tracer", "current_trace", "stage", "activated"]

#: The trace active in this thread/task, or None (the overwhelmingly
#: common disabled case — one ``.get()`` is the entire off-path cost).
_ACTIVE: "ContextVar[Optional[Trace]]" = ContextVar("repro_obs_trace", default=None)


def current_trace() -> "Optional[Trace]":
    """The trace active in the current context, or None."""
    return _ACTIVE.get()


class _Noop:
    """A shared, allocation-free stand-in for every disabled context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NOOP = _Noop()


def stage(name: str) -> Any:
    """A span context manager on the active trace — or a shared no-op.

    The one instrumentation hook the engine layers use: cost when no trace
    is active is a contextvar read and a shared-object return.
    """
    trace = _ACTIVE.get()
    if trace is None:
        return _NOOP
    return Span(trace, name)


def activated(trace: "Optional[Trace]") -> Any:
    """Re-enter ``trace`` in this thread (no-op context manager when None).

    Worker-pool bodies run on threads that never inherited the request's
    context; the dispatching caller passes the trace explicitly and wraps
    the body in ``with activated(trace):`` so :func:`stage` works there.
    """
    if trace is None:
        return _NOOP
    return _Activation(trace)


class _Activation:
    """Context manager binding a trace into the current context."""

    __slots__ = ("trace", "_token")

    def __init__(self, trace: "Trace") -> None:
        self.trace = trace
        self._token: Any = None

    def __enter__(self) -> "Trace":
        self._token = _ACTIVE.set(self.trace)
        return self.trace

    def __exit__(self, *exc_info: Any) -> bool:
        _ACTIVE.reset(self._token)
        return False


class Span:
    """One named wall-clock interval, recorded into its trace on exit."""

    __slots__ = ("trace", "name", "_start")

    def __init__(self, trace: "Trace", name: str) -> None:
        self.trace = trace
        self.name = name
        self._start = 0

    def __enter__(self) -> "Span":
        self._start = perf_counter_ns()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        end = perf_counter_ns()
        # One atomic append; concurrent spans from fanned-out workers are fine.
        self.trace.spans.append((self.name, self._start, end - self._start))
        return False


class Trace:
    """One request's spans: a name, labels, and ``(stage, start, ns)`` triples."""

    __slots__ = ("name", "labels", "start_ns", "duration_ns", "spans")

    def __init__(self, name: str, labels: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.labels = labels or {}
        self.start_ns = 0
        #: Filled in by the tracer when the request context exits.
        self.duration_ns = 0
        self.spans: List[Tuple[str, int, int]] = []

    def span(self, name: str) -> Span:
        """A context manager timing one stage of this trace."""
        return Span(self, name)

    def add_span(self, name: str, start_ns: int, duration_ns: int) -> None:
        """File an externally measured interval as a span of this trace.

        The hook for stages whose clock ran somewhere :class:`Span` cannot —
        a pooled worker *process* reports how long it held a request, and
        the dispatcher files that measurement into the request's trace as a
        ``worker`` span.  One atomic append, same as a ``Span`` exit.
        """
        self.spans.append((name, start_ns, duration_ns))

    def stage_totals(self) -> Dict[str, int]:
        """Total nanoseconds per stage name (a span's repeats accumulate)."""
        totals: Dict[str, int] = {}
        for name, _start, duration in self.spans:
            totals[name] = totals.get(name, 0) + duration
        return totals

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-friendly rendering (what the recent-trace digest exposes)."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "duration_ns": self.duration_ns,
            "spans": [
                {"stage": name, "offset_ns": start - self.start_ns, "ns": duration}
                for name, start, duration in self.spans
            ],
        }

    def __repr__(self) -> str:
        return "Trace({}, {} spans, {:.3f} ms)".format(
            self.name, len(self.spans), self.duration_ns / 1e6
        )


class _RequestContext:
    """Context manager for one sampled request: binds, times, retires."""

    __slots__ = ("tracer", "trace", "_token")

    def __init__(self, tracer: "Tracer", trace: Trace) -> None:
        self.tracer = tracer
        self.trace = trace
        self._token: Any = None

    def __enter__(self) -> Trace:
        self._token = _ACTIVE.set(self.trace)
        self.trace.start_ns = perf_counter_ns()
        return self.trace

    def __exit__(self, *exc_info: Any) -> bool:
        trace = self.trace
        trace.duration_ns = perf_counter_ns() - trace.start_ns
        _ACTIVE.reset(self._token)
        self.tracer._retire(trace)
        return False


class Tracer:
    """Sampling policy plus a bounded ring of recent traces.

    Parameters
    ----------
    enabled:
        Off by default; a disabled tracer's :meth:`request` returns the
        shared no-op without taking any lock.
    sample_every:
        Deterministic 1-in-N sampling of requests while enabled (1 traces
        everything).  Deterministic — a counter, not a coin flip — so
        tests and benchmarks can assert exact trace counts.
    ring_size:
        How many finished traces are retained (older ones fall off).
    slow_threshold_ns:
        Sampled traces at least this long are counted and logged through
        ``logger`` as ``slow_request`` events; None disables the log.
    logger:
        A :class:`repro.obs.logging.StructuredLogger` (or anything with
        its ``log(event, **fields)`` shape) for slow-request lines.
    """

    def __init__(
        self,
        enabled: bool = False,
        sample_every: int = 1,
        ring_size: int = 128,
        slow_threshold_ns: Optional[int] = None,
        logger: Any = None,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1, got {}".format(sample_every))
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1, got {}".format(ring_size))
        self.enabled = enabled
        self.sample_every = sample_every
        self.slow_threshold_ns = slow_threshold_ns
        self.logger = logger
        self._lock = threading.Lock()
        self._ring: "Deque[Trace]" = deque(maxlen=ring_size)
        #: Requests seen / sampled / retired-as-slow while enabled.
        self.seen = 0
        self.sampled = 0
        self.slow = 0

    # ------------------------------------------------------------- requests
    def request(self, name: str, **labels: Any) -> Any:
        """Open a request trace (or the shared no-op when off / not sampled).

        Use as ``with tracer.request("recognize") as trace:`` — ``trace``
        is None when the request is not being traced, and stages inside
        the block (this thread) need no reference: :func:`stage` finds the
        trace through the contextvar.
        """
        if not self.enabled:
            return _NOOP
        with self._lock:
            self.seen += 1
            take = self.seen % self.sample_every == 0
            if take:
                self.sampled += 1
        if not take:
            return _NOOP
        return _RequestContext(self, Trace(name, labels))

    def _retire(self, trace: Trace) -> None:
        """File a finished trace into the ring (and the slow log)."""
        self._ring.append(trace)
        threshold = self.slow_threshold_ns
        if threshold is not None and trace.duration_ns >= threshold:
            with self._lock:
                self.slow += 1
            if self.logger is not None:
                self.logger.log(
                    "slow_request",
                    request=trace.name,
                    duration_ms=round(trace.duration_ns / 1e6, 3),
                    stages={
                        name: round(ns / 1e6, 3)
                        for name, ns in trace.stage_totals().items()
                    },
                    **trace.labels,
                )

    # ------------------------------------------------------------ inspection
    def traces(self) -> List[Trace]:
        """The retained recent traces, oldest first."""
        return list(self._ring)

    def digest(self) -> Dict[str, Any]:
        """A JSON-friendly summary of tracer state and the recent ring.

        ``stages`` aggregates span time per stage name across the ring —
        the per-stage breakdown :meth:`repro.serve.ParseService.stats`
        exposes without shipping whole traces.
        """
        traces = self.traces()
        stages: Dict[str, Dict[str, int]] = {}
        for trace in traces:
            for name, total in trace.stage_totals().items():
                bucket = stages.setdefault(name, {"count": 0, "total_ns": 0})
                bucket["count"] += 1
                bucket["total_ns"] += total
        return {
            "enabled": self.enabled,
            "sample_every": self.sample_every,
            "seen": self.seen,
            "sampled": self.sampled,
            "slow": self.slow,
            "recent": len(traces),
            "recent_total_ns": sum(trace.duration_ns for trace in traces),
            "stages": stages,
        }

    def __repr__(self) -> str:
        return "Tracer(enabled={}, sampled={}/{}, ring={})".format(
            self.enabled, self.sampled, self.seen, len(self._ring)
        )
