"""Span recording around the public functions of each ``repro`` layer.

Nothing here touches ``src/``: the traced run replaces a handful of public
functions and methods with timing wrappers (:meth:`Tracer.install`) and puts
the originals back afterwards (:meth:`Tracer.uninstall`).  The untraced run
never imports this module's wrappers into the program at all.

A span records its name, a wall-clock start and end, the CPU time of the
thread it ran on, its parent span and the request it belongs to.  Spans are
kept in memory and written out once, at the end of the run.

Parentage follows a per-thread stack.  A span opened on a thread whose stack
is empty (a service worker thread picking up a stream) is parented to the
request span the client currently has open, so every span of a request
shares that request's id.

Self times use thread CPU time: a span's CPU time minus its children's.  A
child always runs on its parent's thread (the stack guarantees it), so the
subtraction is exact, and two worker threads taking turns under the GIL do
not count each other's time.  Times that are about waiting (service hand-off
and overhead) use wall-clock intervals instead.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from time import perf_counter_ns, thread_time_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "self_cpu_ns", "covered_ns"]

#: A finished span: (id, parent id, request id, name, wall start ns,
#: wall end ns, thread CPU ns, value).  ``value`` carries a number the
#: wrapped call returned or consumed (tokens recognized, live nodes left).
Span = Tuple[int, int, int, str, int, int, int, Any]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: The client's open request span; worker-thread spans parent to it.
        self.request_span = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Start a span on this thread and return its open record."""
        stack = self._stack()
        if stack:
            parent, request = stack[-1][0], stack[-1][2]
        else:
            parent = request = self.request_span
        record = [next(self._ids), parent, request, name, perf_counter_ns(), thread_time_ns()]
        stack.append(record)
        return record

    def close(self, record: list, value: Any = None) -> None:
        """Finish the span ``record`` (the innermost open one on this thread)."""
        cpu = thread_time_ns() - record[5]
        end = perf_counter_ns()
        self._stack().pop()
        self.spans.append(
            (record[0], record[1], record[2], record[3], record[4], end, cpu, value)
        )

    def begin_request(self, name: str = "request") -> list:
        """Open a client request span; later worker spans parent to it."""
        record = self.open(name)
        # A request span is its own request.
        record[2] = record[0]
        self.request_span = record[0]
        return record

    def end_request(self, record: list, value: Any = None) -> None:
        """Close a client request span."""
        self.close(record, value)
        self.request_span = 0

    def write(self, path: str) -> None:
        """Write every span as one JSON line (keys spelled out)."""
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns", "cpu_ns", "value")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span)), default=str))
                out.write("\n")

    # --------------------------------------------------------- wrappers
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        value_of: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a wrapper recording span ``name``.

        ``value_of(args, result)`` picks the number stored with the span.
        """
        # Take a class's own attribute, not a bound or inherited lookup.
        original = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(record)
                raise
            tracer.close(record, value_of(args, result) if value_of is not None else None)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def wrap_generator(self, owner: type, attribute: str, name: str) -> None:
        """Wrap a method returning an iterator: one span per ``next()``.

        Calling such a method returns at once; the work happens while the
        caller consumes the iterator, so that is what gets timed.
        """
        original = owner.__dict__[attribute]
        tracer = self

        def timed(iterator: Iterator[Any]) -> Iterator[Any]:
            while True:
                record = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.close(record)
                    return
                except BaseException:
                    tracer.close(record)
                    raise
                tracer.close(record)
                yield item

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return timed(original(*args, **kwargs))

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer a workload can reach."""
        from repro.compile.automaton import GrammarTable
        from repro.compile.executor import CompiledParser
        from repro.core.derivative import Deriver
        from repro.core.fixpoint import FixpointSolver
        from repro.core.forest_query import ForestQuery
        from repro.serve.service import ParseService

        # ``repro.core.parse`` and ``repro.serve.pool`` are shadowed by
        # same-named package attributes, so look the modules up directly.
        core_parse = importlib.import_module("repro.core.parse")
        serve_pool = importlib.import_module("repro.serve.pool")
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        self.wrap(ParseService, "table_for", "serve.cache.table_for")
        self.wrap(
            CompiledParser,
            "recognize_with_stats",
            "compile.executor.recognize",
            value_of=lambda args, result: len(args[1]),
        )
        self.wrap(GrammarTable, "step_slow", "compile.automaton.step_slow")
        self.wrap(Deriver, "derive", "core.derivative.derive")
        self.wrap(FixpointSolver, "solve", "core.fixpoint.solve")
        self.wrap(
            core_parse,
            "prune_empty",
            "core.prune.prune_empty",
            value_of=lambda args, result: result[1],
        )
        self.wrap(core_parse.DerivativeParser, "parse_null", "core.parse.parse_null")
        self.wrap(core_parse, "first_tree", "core.forest.first_tree")
        self.wrap(ForestQuery, "__init__", "core.forest_query.count")
        self.wrap_generator(ForestQuery, "iter_ranked", "core.forest_query.rank")
        self.wrap(ForestQuery, "sample_n", "core.forest_query.sample")
        self.wrap(serve_pool, "encode_recognize_payload", "serve.pool.encode")
        self.wrap(serve_pool, "encode_parse_payload", "serve.pool.encode")

    def uninstall(self) -> None:
        """Put every wrapped function back (reverse order of wrapping)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------- analysis
def self_cpu_ns(spans: List[Span]) -> Dict[int, int]:
    """Per span id: its CPU time minus the CPU time of its child spans.

    Only children on the parent's own thread are subtracted — that is every
    child except the top-level engine spans of a request, whose parent is
    the client's request span on another thread.  Those are recognised by
    the parent being a request span (its own request).
    """
    own = {span[0]: span[6] for span in spans}
    requests = {span[0] for span in spans if span[0] == span[2]}
    for span in spans:
        parent = span[1]
        if parent in own and parent not in requests:
            own[parent] -= span[6]
    return own


def covered_ns(start: int, end: int, intervals: List[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
