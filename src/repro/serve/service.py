"""`ParseService` — the concurrent, batched front door to the parsing engines.

One object owns everything a server process needs to parse heavy traffic:

* a bounded LRU of compiled grammar tables
  (:class:`~repro.serve.cache.TableCache`, keyed by structural
  fingerprint, hit/miss metered),
* a thread pool running batched ``recognize`` / ``parse`` / ``enumerate``
  / ``sample`` requests over token-stream batches (``*_many``),
* an asyncio front door for the same four requests that coalesces
  identical grammar+input requests in flight — both surfaces serve a
  request kind through its one entry in the op table :data:`OPS`,
* a :class:`~repro.serve.sessions.SessionManager` for long-lived streaming
  parses with checkpoints and idle eviction.

**Division of labour between the engines.**  Recognition rides the shared
compiled table's edge dicts: warm tokens are lock-free dict probes from
any number of threads, cold edges derive once under the table lock and
are linked into the states' edge dicts on the way out
(:mod:`repro.compile.automaton`'s contract).  Batches meter their split —
tokens resolved by an edge dict vs. by ``step_slow`` — into
``ServiceMetrics`` (``dense_hits`` / ``dense_fallbacks``), so warm-up
progress shows up in :meth:`stats`.  Tree extraction cannot ride
class-interned transitions, so :meth:`parse_many` runs the *interpreted*
engine instead — one thread-confined
:class:`~repro.core.parse.DerivativeParser` per (worker thread × grammar),
each built from the cached table's root, of which it derives on its own
copy, so workers never contend and never touch a shared graph.

A note on expectations: CPython's GIL means the thread pool interleaves
rather than parallelizes pure-Python parsing, so worker count buys
*concurrency* (slow streams don't block fast ones; C-level work overlaps),
not linear speedup.  The service's throughput win over a naive sequential
caller comes from the warm shared table and the amortized compile — see
``benchmarks/bench_serve_throughput.py`` for the measured factors.
"""

from __future__ import annotations

import asyncio
import math
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..compile.executor import CompiledParser
from ..core.errors import EmptyForestError, ParseError, ReproError
from ..core.forest_query import ForestQuery, ranking_by_name
from ..core.metrics import Metrics
from ..core.parse import DerivativeParser
from ..incremental import DEFAULT_CHECKPOINT_EVERY
from ..obs.exposition import prometheus_exposition
from ..obs.observer import Observer
from ..obs.trace import activated, stage
from .cache import CacheEntry, FingerprintMemo, TableCache
from .metrics import ServiceMetrics
from .sessions import ParseSession, SessionCheckpoint, SessionManager

__all__ = ["ForestOutcome", "OPS", "Op", "ParseOutcome", "ParseService", "ServiceClosed"]

#: Default per-request tree budget for the forest endpoints: the most
#: trees one enumerate/sample request may materialize service-side.
DEFAULT_TREE_BUDGET = 64


class ServiceClosed(ReproError):
    """The service was used after :meth:`ParseService.close`."""


class ParseOutcome:
    """The result of one service-side parse: a tree or a diagnosed failure.

    Batch APIs must not let one malformed stream blow up the other
    thousand, so :meth:`ParseService.parse_many` reports per-stream
    outcomes instead of raising: ``ok`` with the ``tree``, or ``not ok``
    with the engine's :class:`~repro.core.errors.ParseError` (whose
    ``position`` pins the exact offending token, Earley-identical).
    """

    __slots__ = ("ok", "tree", "error")

    def __init__(self, ok: bool, tree: Any = None, error: Optional[ParseError] = None) -> None:
        self.ok = ok
        self.tree = tree
        self.error = error

    @property
    def failure_position(self) -> Optional[int]:
        """The failing token index reported by the diagnosis (None when ok)."""
        return self.error.position if self.error is not None else None

    def __repr__(self) -> str:
        if self.ok:
            return "ParseOutcome(ok)"
        return "ParseOutcome(failed@{})".format(self.failure_position)


class ForestOutcome:
    """The result of one service-side forest query (top-k or samples).

    ``ok`` with ``trees`` (the ranked prefix or the drawn samples) and the
    forest's exact derivation ``count`` (an ``int``; ``math.inf`` for
    cyclic forests) — or ``not ok`` with the diagnosed ``error``: a
    :class:`~repro.core.errors.ParseError` for unrecognized input, an
    :class:`~repro.core.errors.EmptyForestError` when sampling a treeless
    forest, or a ``ValueError`` when the forest is cyclic (infinitely many
    derivations cannot be ranked or sampled uniformly).
    """

    __slots__ = ("ok", "trees", "count", "error")

    def __init__(
        self,
        ok: bool,
        trees: Optional[List[Any]] = None,
        count: Optional[Any] = None,
        error: Optional[Exception] = None,
    ) -> None:
        self.ok = ok
        self.trees = trees if trees is not None else []
        self.count = count
        self.error = error

    @property
    def failure_position(self) -> Optional[int]:
        """The failing token index when the error carries one (else None)."""
        return getattr(self.error, "position", None)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ForestOutcome):
            return NotImplemented
        return (
            self.ok == other.ok
            and self.trees == other.trees
            and self.count == other.count
            and type(self.error) is type(other.error)
            and str(self.error) == str(other.error)
        )

    def __hash__(self) -> int:  # pragma: no cover - outcomes are not set keys
        return hash((self.ok, self.count))

    def __repr__(self) -> str:
        if self.ok:
            return "ForestOutcome(ok, {} trees of {})".format(len(self.trees), self.count)
        return "ForestOutcome(failed: {!r})".format(self.error)


# ---------------------------------------------------------------- op table
#: An op's argument tuple: ``()``, ``(k, ranking)`` or ``(n, seed)``.
Args = Tuple[Any, ...]


class Op(NamedTuple):
    """One request kind, defined once for every surface that serves it.

    ``tag`` is the wire tag and the op's key in :data:`OPS`; ``name`` the
    async trace name (batches trace as ``name + "_many"``, pool
    dispatches as ``"pool_" + name + "_many"``) and the stem of the
    ``<name>_requests`` counter.  ``worker(service, entry, args)`` builds
    one batch's per-stream function ``(index, stream) -> answer``,
    metering included.  ``resolve(args)`` checks and normalizes the
    arguments; ``budgeted`` ops carry a tree count first, capped by
    :meth:`clamp`.  ``wire(args, lo)`` gives the arguments a pool chunk
    starting at stream ``lo`` carries, so chunking never changes an
    answer.  ``ships_kinds`` is the codec: recognition may ship kind-only
    rows on kind-pure grammars, every other op ships the tokens.
    """

    tag: str
    name: str
    worker: Callable[["ParseService", CacheEntry, Args], Callable[[int, Sequence[Any]], Any]]
    resolve: Callable[[Args], Args] = tuple
    wire: Callable[[Args, int], Args] = lambda args, lo: ()
    budgeted: bool = False
    ships_kinds: bool = False

    @property
    def request_metric(self) -> str:
        """The counter of streams served, ``<name>_requests``."""
        return self.name + "_requests"

    def clamp(self, args: Args, requests: int, metrics: ServiceMetrics) -> Args:
        """``args`` with the tree count capped at :data:`DEFAULT_TREE_BUDGET` (metered)."""
        if self.budgeted and (args[0] is None or args[0] > DEFAULT_TREE_BUDGET):
            metrics.inc("tree_budget_clamped", requests)
            return (DEFAULT_TREE_BUDGET,) + tuple(args[1:])
        return args


def _recognize_worker(service: "ParseService", entry: CacheEntry, args: Args):
    """Recognition on the shared compiled table, edge hits metered."""
    parser = CompiledParser(table=entry.table)
    metrics = service.metrics
    obs = service.obs

    def run(index: int, stream: Sequence[Any]) -> bool:
        started = perf_counter_ns()
        accepted, hits, fallbacks = parser.recognize_with_stats(stream)
        elapsed = perf_counter_ns() - started
        if hits:
            metrics.inc("dense_hits", hits)
        if fallbacks:
            metrics.inc("dense_fallbacks", fallbacks)
        elif len(stream):
            # Warm-path rate: every token rode an edge dict.
            obs.record("ns_per_token_dense", elapsed // len(stream))
        return accepted

    return run


def _parse_worker(service: "ParseService", entry: CacheEntry, args: Args):
    """One tree per stream on the worker thread's interpreted parser."""

    def run(index: int, stream: Sequence[Any]) -> ParseOutcome:
        parser = service._worker_parser(entry)
        started = perf_counter_ns()
        try:
            with stage("tree"):
                tree = parser.parse(list(stream))
            outcome = ParseOutcome(True, tree=tree)
        except ParseError as error:
            outcome = ParseOutcome(False, error=error)
        finally:
            # Per-parse caches (memo + null-tree answers) grow with every
            # distinct input; clearing them bounds a worker's memory by one
            # parse instead of its whole service lifetime.
            parser.reset()
        if len(stream):
            # Whole-parse rate per token; the reset above makes every
            # parse start cold, so this is not a warm rate.
            service.obs.record(
                "ns_per_token_parse", (perf_counter_ns() - started) // len(stream)
            )
        return outcome

    return run


def _forest_worker(query: Callable[[Any, Args, int], ForestOutcome]) -> Callable[..., Any]:
    """Parse each stream's forest, answer ``query(forest, args, index)``, meter its trees."""

    def worker(service: "ParseService", entry: CacheEntry, args: Args):
        def run(index: int, stream: Sequence[Any]) -> ForestOutcome:
            parser = service._worker_parser(entry)
            try:
                try:
                    with stage("forest"):
                        forest = parser.parse_forest(list(stream))
                except ParseError as error:
                    return ForestOutcome(False, error=error)
                outcome = query(forest, args, index)
            finally:
                parser.reset()
            if outcome.trees:
                service.metrics.inc("trees_emitted", len(outcome.trees))
            return outcome

        return run

    return worker


def _top_k(forest: Any, args: Args, index: int) -> ForestOutcome:
    """The ``k`` best trees under ``ranking``, plus the exact count."""
    k, ranking = args
    with stage("rank"):
        query = ForestQuery(forest, ranking)
        count = query.count
        if count == math.inf:
            error = ValueError("cannot rank a cyclic forest: infinitely many derivations")
            return ForestOutcome(False, count=count, error=error)
        trees = [tree for _score, tree in query.iter_ranked(k)]
    return ForestOutcome(True, trees=trees, count=count)


def _samples(forest: Any, args: Args, index: int) -> ForestOutcome:
    """``n`` uniform samples from ``random.Random(seed + index)``."""
    n, seed = args
    with stage("sample"):
        query = ForestQuery(forest)
        count = query.count
        try:
            trees = query.sample_n(seed + index, n)
        except (EmptyForestError, ValueError) as error:
            return ForestOutcome(False, count=count, error=error)
    return ForestOutcome(True, trees=trees, count=count)


def _resolve_ranking(args: Args) -> Args:
    k, ranking = args
    resolved = ranking_by_name(ranking)
    if resolved is None:
        raise ValueError("enumerate requires a ranking")
    return k, resolved


#: The op table, keyed by wire tag.
OPS: Dict[str, Op] = {
    op.tag: op
    for op in (
        Op("rec", "recognize", _recognize_worker, ships_kinds=True),
        Op("par", "parse", _parse_worker),
        Op(
            "enu",
            "enumerate",
            _forest_worker(_top_k),
            resolve=_resolve_ranking,
            wire=lambda args, lo: (args[0], args[1].name),
            budgeted=True,
        ),
        Op(
            "sam",
            "sample",
            _forest_worker(_samples),
            wire=lambda args, lo: (args[0], args[1] + lo),
            budgeted=True,
        ),
    )
}


class ParseService:
    """Concurrent batched parsing over cached compiled grammar tables.

    Parameters
    ----------
    workers:
        Thread-pool size for the batch and async APIs (>= 1).
    table_cache_size:
        Maximum number of compiled grammar tables retained (LRU).
    session_idle_ttl:
        Seconds of inactivity after which a streaming session is evicted;
        ``None`` (default) keeps sessions until closed.
    metrics:
        Optional shared :class:`ServiceMetrics`.
    observer:
        Optional :class:`repro.obs.Observer` bundling request tracing,
        latency histograms and the structured lifecycle logger.  The
        default observer keeps tracing off and logging silent but still
        collects latency histograms (they cost one small lock per
        *request*, never per token).

    The service is a context manager; :meth:`close` shuts the pool down and
    closes every session.  All public methods are safe to call from any
    thread; the ``async`` front door additionally coalesces duplicate
    in-flight requests per event loop.
    """

    def __init__(
        self,
        workers: int = 4,
        table_cache_size: int = 32,
        session_idle_ttl: Optional[float] = None,
        metrics: Optional[ServiceMetrics] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1, got {}".format(workers))
        self.workers = workers
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.obs = observer if observer is not None else Observer()
        self.tables = TableCache(table_cache_size, self.metrics, logger=self.obs.logger)
        self.sessions = SessionManager(
            self.metrics, idle_ttl=session_idle_ttl, logger=self.obs.logger
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._local = threading.local()
        #: Live per-worker engine Metrics shards for stats()-time aggregation
        #: (reads of stale ints are acceptable there).  When a worker's
        #: per-thread pool evicts a parser, its shard is folded into
        #: ``_retired_engine`` and removed, so neither list nor memory grows
        #: with the number of grammars the service has ever seen.
        self._worker_metrics: List[Metrics] = []
        self._retired_engine = Metrics()
        self._worker_metrics_lock = threading.Lock()
        #: In-flight async requests keyed by (op, fingerprint, tokens) —
        #: touched only from event-loop callbacks, per-loop by construction.
        self._inflight: Dict[Tuple[Any, ...], "asyncio.Future[Any]"] = {}
        self._fingerprints = FingerprintMemo()
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the worker pool and close every session (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.sessions.close_all()
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ParseService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceClosed("this ParseService has been closed")

    # ---------------------------------------------------------------- tables
    def table_for(self, grammar: Any) -> CacheEntry:
        """The warm cache entry for ``grammar`` (compiling on first sight).

        The structural fingerprint is memoized per root object, so a warm
        lookup costs two dictionary probes instead of an O(graph) hash walk.
        When a request trace is active, the two steps land as the
        ``fingerprint`` and ``table`` stages.
        """
        self._require_open()
        with stage("fingerprint"):
            fingerprint, _root = self._fingerprints.lookup(grammar)
        with stage("table"):
            return self.tables.get_or_compile(grammar, fingerprint=fingerprint)

    def warm_start(self, paths: Iterable[str], grammar_for: Any) -> int:
        """Preload serialized tables into the table cache (no request needed).

        Delegates to :meth:`TableCache.warm_start`: each path's table
        document is restored **with zero derivations** and cached under its
        fingerprint, so the first request for that grammar is a table hit.
        ``grammar_for`` maps fingerprints to grammars (mapping, callable,
        or a single grammar).  Returns the number of tables loaded.  This
        is how a pooled worker process warm-starts its shard from the
        dispatcher's table store before traffic arrives.
        """
        self._require_open()
        return len(self.tables.warm_start(paths, grammar_for))

    # ------------------------------------------------------------ batch APIs
    def recognize_many(self, grammar: Any, streams: Iterable[Sequence[Any]]) -> List[bool]:
        """Recognize a batch of token streams; one bool per stream, in order.

        All streams ride the one shared compiled table: the first batch
        warms it, later batches (and later streams of this one) are pure
        table walks fanned across the worker pool.
        """
        return self._run_many(OPS["rec"], grammar, streams)

    def parse_many(self, grammar: Any, streams: Iterable[Sequence[Any]]) -> List[ParseOutcome]:
        """Parse a batch of token streams into :class:`ParseOutcome` objects.

        Tree extraction runs on the per-worker interpreted parser pool
        (thread-confined graphs — the concurrency contract), so outcomes
        carry real parse trees and exact failure positions and the workers
        never contend on shared state.
        """
        return self._run_many(OPS["par"], grammar, streams)

    def enumerate_many(
        self,
        grammar: Any,
        streams: Iterable[Sequence[Any]],
        k: Optional[int] = None,
        ranking: Any = "size",
    ) -> List[ForestOutcome]:
        """Top-``k`` trees per stream, best-first under ``ranking``.

        One :class:`ForestOutcome` per stream, in order: the ranked tree
        prefix plus the forest's exact derivation count.  ``k`` (and the
        ``k=None`` "give me everything" case) is clamped to
        :data:`DEFAULT_TREE_BUDGET` — extraction is lazy, so a stream
        with 10^21 parses costs the same as one with 10.  ``ranking`` is a
        :class:`~repro.core.forest_query.Ranking` or a registered name.
        """
        return self._run_many(OPS["enu"], grammar, streams, (k, ranking))

    def sample_many(
        self,
        grammar: Any,
        streams: Iterable[Sequence[Any]],
        n: int = 1,
        seed: int = 0,
    ) -> List[ForestOutcome]:
        """``n`` uniform samples per stream over each stream's parse forest.

        Stream ``i`` samples from ``random.Random(seed + i)`` — explicit,
        replayable seeds (the repo audits against global RNG use), and the
        same arithmetic the pooled service applies per shard, so pooled and
        in-process results are byte-identical.  ``n`` is clamped to
        :data:`DEFAULT_TREE_BUDGET`.
        """
        return self._run_many(OPS["sam"], grammar, streams, (n, seed))

    def _run_many(
        self,
        op: Op,
        grammar: Any,
        streams: Iterable[Sequence[Any]],
        args: Args = (),
    ) -> List[Any]:
        """Serve one batch of ``op``: one answer per stream, in order."""
        self._require_open()
        args = op.resolve(args)
        started = perf_counter_ns()
        with self.obs.tracer.request(op.name + "_many") as trace:
            entry = self.table_for(grammar)
            streams = list(streams)
            self.metrics.inc("batch_calls")
            self.metrics.inc(op.request_metric, len(streams))
            run = op.worker(self, entry, op.clamp(args, len(streams), self.metrics))

            def traced(index: int, stream: Sequence[Any]) -> Any:
                # Pool threads never inherited the request's contextvar;
                # re-enter the trace (no-op when the request is untraced).
                with activated(trace):
                    return run(index, stream)

            results = list(self._executor.map(traced, range(len(streams)), streams))
        self.obs.record("request_latency_ns", perf_counter_ns() - started)
        self.obs.record("batch_size", len(streams))
        return results

    # -------------------------------------------------------- worker parsers
    def _worker_parser(self, entry: CacheEntry) -> DerivativeParser:
        """This thread's private interpreted parser for ``entry``'s grammar.

        Built on first use per (worker thread × grammar) from the table's
        root, which the parser copies (see
        :meth:`repro.compile.CompiledParser.fallback` for why copying needs
        no lock).  The pool is LRU-bounded per thread
        by the table cache's capacity so a worker cannot hoard graphs for
        grammars the service itself has forgotten.
        """
        pool: "Optional[OrderedDict[str, DerivativeParser]]" = getattr(
            self._local, "parsers", None
        )
        if pool is None:
            pool = self._local.parsers = OrderedDict()
        parser = pool.get(entry.fingerprint)
        if parser is None:
            worker_metrics = Metrics()
            with self._worker_metrics_lock:
                self._worker_metrics.append(worker_metrics)
            parser = DerivativeParser(
                entry.table.root, optimize_grammar=False, metrics=worker_metrics
            )
            pool[entry.fingerprint] = parser
            while len(pool) > self.tables.capacity:
                _, evicted = pool.popitem(last=False)
                with self._worker_metrics_lock:
                    self._retired_engine.merge(evicted.metrics)
                    self._worker_metrics.remove(evicted.metrics)
        else:
            pool.move_to_end(entry.fingerprint)
        return parser

    # ------------------------------------------------------ asyncio front door
    async def parse(self, grammar: Any, tokens: Sequence[Any]) -> ParseOutcome:
        """Parse one stream from async code, coalescing duplicates in flight.

        Two coroutines awaiting ``parse`` with the same grammar (by
        structural fingerprint) and the same token sequence while the first
        is still running share one worker execution and one result
        (``coalesced_requests`` counts the saved runs).  Requires a running
        event loop; the blocking work happens on the service's pool.
        """
        return await self._run_one(OPS["par"], grammar, tokens)

    async def recognize(self, grammar: Any, tokens: Sequence[Any]) -> bool:
        """Recognize one stream from async code (coalesced like :meth:`parse`)."""
        return await self._run_one(OPS["rec"], grammar, tokens)

    async def enumerate(
        self,
        grammar: Any,
        tokens: Sequence[Any],
        k: Optional[int] = None,
        ranking: Any = "size",
    ) -> ForestOutcome:
        """Top-k one stream from async code (coalesced like :meth:`parse`).

        Identical in-flight requests — same grammar, tokens, ``k`` and
        ranking — share one worker execution.
        """
        return await self._run_one(OPS["enu"], grammar, tokens, (k, ranking))

    async def sample(
        self,
        grammar: Any,
        tokens: Sequence[Any],
        n: int = 1,
        seed: int = 0,
    ) -> ForestOutcome:
        """Uniformly sample one stream from async code (coalesced).

        The seed is part of the coalescing key, so two concurrent requests
        share a worker execution only when they would draw the exact same
        trees anyway.
        """
        return await self._run_one(OPS["sam"], grammar, tokens, (n, seed))

    async def _run_one(
        self, op: Op, grammar: Any, tokens: Sequence[Any], args: Args = ()
    ) -> Any:
        """Serve one stream of ``op`` on the pool, coalesced by grammar, tokens and args."""
        tokens = tuple(tokens)
        args = op.resolve(args)
        fingerprint, _root = self._fingerprints.lookup(grammar)

        def blocking() -> Any:
            entry = self.table_for(grammar)
            return op.worker(self, entry, op.clamp(args, 1, self.metrics))(0, tokens)

        key = (fingerprint, tokens) + op.wire(args, 0)
        return await self._coalesced(op.name, key, op.request_metric, blocking)

    async def edit(
        self, session: Any, start: int, end: int, new_tokens: Sequence[Any]
    ):
        """Apply one edit to a streaming session from async code.

        ``session`` is a session id or a :class:`ParseSession` of this
        service.  Gets the same treatment as :meth:`parse`/:meth:`recognize`:
        metered (``edit_requests``), run on the worker pool, and coalesced —
        two coroutines submitting the *identical* edit to the same session
        while the first is in flight share one application.  Returns the
        :class:`~repro.incremental.EditResult`.

        Coalescing is by value and scoped to the in-flight window, so read
        it as best-effort retry dedup, not transactional semantics: a retry
        arriving *after* the first application completes applies again, and
        two *independent* clients submitting byte-identical concurrent edits
        share one application.  Callers needing exactly-once across clients
        should disambiguate their edits (distinct content/positions) or
        serialize through :meth:`edit_session`.
        """
        session_id = session.session_id if isinstance(session, ParseSession) else session
        new_tokens = tuple(new_tokens)
        key = (session_id, start, end, new_tokens)
        return await self._coalesced(
            "edit",
            key,
            "edit_requests",
            lambda: self.edit_session(session_id, start, end, new_tokens, _metered=False),
        )

    async def _coalesced(
        self,
        op: str,
        key: Tuple[Any, ...],
        request_metric: str,
        blocking: Callable[[], Any],
    ) -> Any:
        # The shared future is completed by a done-callback on the executor
        # job, not by the leader coroutine: cancelling the leader (client
        # timeout) must not fan CancelledError out to coalesced followers
        # whose requests are still valid.  Every awaiter shields the shared
        # future for the same reason — an awaiting task's cancellation would
        # otherwise cancel the future under everyone else.
        self._require_open()
        loop = asyncio.get_running_loop()
        key = (op, id(loop)) + key
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.inc("coalesced_requests")
            self.obs.logger.log("coalesced_hit", op=op)
            return await asyncio.shield(existing)
        self.metrics.inc(request_metric)
        future: "asyncio.Future[Any]" = loop.create_future()
        self._inflight[key] = future

        def work() -> Any:
            # Runs on a pool thread, so the request context opened here is
            # visible to every stage() the blocking body reaches.
            started = perf_counter_ns()
            with self.obs.tracer.request(op):
                result = blocking()
            self.obs.record("request_latency_ns", perf_counter_ns() - started)
            return result

        def transfer(done: "asyncio.Future[Any]") -> None:
            self._inflight.pop(key, None)
            exception = done.exception()
            if future.cancelled():
                return
            if exception is not None:
                future.set_exception(exception)
                # Mark retrieved: an awaiter-less failure must not warn.
                future.exception()
            else:
                future.set_result(done.result())

        loop.run_in_executor(self._executor, work).add_done_callback(transfer)
        return await asyncio.shield(future)

    # --------------------------------------------------------------- sessions
    def open_session(
        self, grammar: Any, checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    ) -> ParseSession:
        """Begin a long-lived streaming parse; see :class:`ParseSession`.

        Every session owns a token buffer and a checkpoint trail — one
        O(1) snapshot per ``checkpoint_every`` tokens — so it answers tree
        queries and supports :meth:`ParseSession.apply_edit` / the
        :meth:`edit` front door.
        """
        self._require_open()
        return self.sessions.open(
            self.table_for(grammar), checkpoint_every=checkpoint_every
        )

    def restore_session(self, checkpoint: SessionCheckpoint) -> ParseSession:
        """Resume a new session from a checkpoint (see :meth:`SessionManager.restore`)."""
        self._require_open()
        return self.sessions.restore(checkpoint)

    def edit_session(
        self,
        session: Any,
        start: int,
        end: int,
        new_tokens: Sequence[Any],
        _metered: bool = True,
    ):
        """Synchronously apply one edit to a session (id or object).

        The blocking counterpart of :meth:`edit` — resolves the session in
        this service's registry and delegates to
        :meth:`ParseSession.apply_edit`.
        """
        self._require_open()
        if _metered:
            self.metrics.inc("edit_requests")
        if isinstance(session, ParseSession):
            session = self.sessions.get(session.session_id)
        else:
            session = self.sessions.get(session)
        result = session.apply_edit(start, end, new_tokens)
        self.obs.record("edit_tokens_refed", result.refed_tokens)
        return result

    # ------------------------------------------------------------- inspection
    def stats(self) -> Dict[str, Any]:
        """Service counters plus aggregated engine metrics and cache state.

        Engine counters are folded from the per-table and per-worker shards
        at read time; values may trail in-flight work by a few increments
        (stale reads of integers are harmless), which is the price of
        keeping the hot paths lock-free.

        ``latency`` carries the observer's histogram digests (count / sum /
        min / max / mean / p50 / p95 / p99 per series — request latency,
        warm-path ns/token, batch sizes, re-fed edit tokens); ``traces``
        is the tracer's digest of the recent sampled-request ring,
        including aggregate per-stage span totals.
        """
        snapshot = self.metrics.snapshot()
        engine = Metrics()
        for entry in self.tables.entries():
            engine.merge(entry.engine_metrics)
        with self._worker_metrics_lock:
            shards = list(self._worker_metrics)
            engine.merge(self._retired_engine)
        for shard in shards:
            engine.merge(shard)
        return {
            "service": snapshot,
            "engine": engine.as_dict(),
            "tables_cached": len(self.tables),
            "table_capacity": self.tables.capacity,
            "live_sessions": len(self.sessions),
            "workers": self.workers,
            "latency": self.obs.summaries(),
            "traces": self.obs.tracer.digest(),
        }

    def exposition(self) -> str:
        """:meth:`stats` rendered in Prometheus text format.

        Counters, gauges and full ``_bucket``/``_sum``/``_count`` series
        for every latency histogram — what a scrape endpoint (or
        ``python -m repro.serve --stats``) emits.
        """
        return prometheus_exposition(self.stats(), self.obs.histogram_snapshots())

    def __repr__(self) -> str:
        return "ParseService(workers={}, tables={}/{}, sessions={})".format(
            self.workers, len(self.tables), self.tables.capacity, len(self.sessions)
        )
