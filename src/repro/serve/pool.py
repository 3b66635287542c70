"""`PooledParseService` — a sharded multi-process pool behind the service API.

CPython's GIL caps :class:`~repro.serve.ParseService` at one core: its
thread pool buys *concurrency*, not parallel token throughput.  This
module buys the other axis.  A dispatcher in the application process fans
``recognize_many`` / ``parse_many`` batches over N worker *processes*,
each running its own inner service on its own interpreter — N cores of
pure-Python parsing instead of one.

The design is shaped by what made the in-process service fast, because a
naive process pool destroys all of it:

* **Shard by grammar, not round-robin.**  Requests route by the grammar's
  :func:`~repro.core.languages.structural_fingerprint` on a consistent
  hash ring (``replication`` workers per grammar), so each worker's table
  cache stays hot for its shard — the compile-once, walk-forever economics
  of the single-process service, preserved per worker.  The ring means
  adding grammars never reshuffles existing assignments.
* **Warm starts from the table store.**  The dispatcher persists each
  grammar's compiled table to an on-disk
  :class:`~repro.serve.store.TableStore` after its first served batch
  (asking a worker that already holds it warm), and every *later* worker
  that grammar touches — shard replicas, crash respawns, whole new fleets
  via :meth:`PooledParseService.preload` — loads it back with **zero
  derivations** (:func:`repro.compile.load_table`'s contract).  A fleet
  cold-starts at warm-cache speed.
* **Cheap wire format.**  Recognition batches on kind-pure grammars cross
  the pipe as kind strings (~60× cheaper than pickling token objects —
  the difference between beating and losing to the in-process service);
  :class:`PreparedBatch` additionally caches encodings across repeat
  calls.  See :mod:`repro.serve.transport`.
* **Crash containment.**  A dead worker is detected by pipe EOF, respawned
  in place (same ring position), re-registered with its shard's grammars —
  warm from the store — and its in-flight requests are resent, bounded by
  ``max_retries``; callers see a completed batch, not a stack trace,
  unless the same request keeps killing workers
  (:class:`~repro.serve.transport.WorkerCrashed`).
* **One fleet view.**  ``stats()`` folds every worker's service counters
  (:meth:`~repro.serve.metrics.ServiceMetrics.merge_snapshot`), engine
  counters (:meth:`~repro.core.metrics.Metrics.merge`) and latency
  histograms (:meth:`~repro.obs.histogram.Histogram.merge`, folded under
  ``worker_``-prefixed series) into one dict shaped like the in-process
  ``stats()``, and ``exposition()`` renders the same Prometheus text.
  Request traces gain ``dispatch`` and ``worker`` spans.

The result is the same calling convention as ``ParseService`` —
``recognize_many(grammar, streams)`` / ``parse_many(grammar, streams)``,
exact same answers (a differential property test holds the two engines
equal, tree for tree) — with throughput that scales with cores instead of
saturating one.

**Lock order.**  The dispatcher uses two lock families: each handle's
send lock (serializes its pipe and its crash transition) and the pool's
state lock (the grammar registry).  The crash handler acquires them
send-then-state; nothing ever acquires state-then-send — registration
builds its to-do under the state lock but performs every pipe write after
releasing it, coordinating racers through per-worker acknowledgement
futures instead.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import tempfile
import threading
from bisect import bisect_right
from concurrent.futures import Future
from time import perf_counter_ns
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..compile.automaton import GrammarTable
from ..compile.executor import CompiledParser
from ..core.forest_query import RANKINGS
from ..core.languages import clone_graph
from ..core.metrics import Metrics
from ..obs.exposition import prometheus_exposition
from ..obs.histogram import Histogram
from ..obs.observer import Observer
from ..obs.trace import stage
from .cache import FingerprintMemo
from .metrics import ServiceMetrics
from .service import OPS, ForestOutcome, Op, ParseOutcome, ServiceClosed
from .store import TableStore
from .transport import (
    WIRE_PROTOCOL,
    PendingRequest,
    WorkerCrashed,
    WorkerHandle,
    encode_parse_payload,
    encode_recognize_payload,
)

__all__ = ["HashRing", "PooledParseService", "PreparedBatch"]

class HashRing:
    """Consistent hashing of grammar fingerprints onto worker indices.

    ``vnodes`` virtual points per worker smooth the distribution; hashes
    come from :mod:`hashlib` (stable across processes and
    ``PYTHONHASHSEED``, unlike the builtin ``hash``).  :meth:`shard`
    walks clockwise from the fingerprint's point collecting *distinct*
    workers, so a grammar's replicas always land on different processes.
    """

    def __init__(self, workers: int, vnodes: int = 64) -> None:
        if workers < 1:
            raise ValueError("ring needs >= 1 worker, got {}".format(workers))
        points: List[Tuple[int, int]] = []
        for worker in range(workers):
            for vnode in range(vnodes):
                digest = hashlib.sha256(
                    "worker:{}:vnode:{}".format(worker, vnode).encode("ascii")
                ).hexdigest()
                points.append((int(digest[:16], 16), worker))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._workers = [worker for _, worker in points]
        self.size = workers

    def shard(self, fingerprint: str, count: int) -> List[int]:
        """The ``count`` distinct workers serving ``fingerprint``, primary first."""
        count = min(count, self.size)
        point = int(hashlib.sha256(fingerprint.encode("ascii")).hexdigest()[:16], 16)
        start = bisect_right(self._hashes, point)
        chosen: List[int] = []
        for offset in range(len(self._workers)):
            worker = self._workers[(start + offset) % len(self._workers)]
            if worker not in chosen:
                chosen.append(worker)
                if len(chosen) == count:
                    break
        return chosen


class PreparedBatch:
    """A batch with its wire encodings cached across repeated calls.

    Encoding a batch (pickling streams, or flattening them to kind rows)
    is the dispatcher's main per-call CPU cost; a caller replaying the
    same streams — a benchmark loop, a poller re-validating a corpus —
    wraps them once with :meth:`PooledParseService.prepare` and passes the
    result anywhere ``streams`` goes.  Payload bytes are memoized per
    (codec, chunking, purity), and the workers' decode caches key on
    those same bytes, so a replayed batch is never re-pickled on either
    side of the pipe.  Unprepared batches take the same path through a
    one-off instance.
    """

    __slots__ = ("fingerprint", "streams", "_payloads")

    def __init__(self, fingerprint: str, streams: List[Sequence[Any]]) -> None:
        self.fingerprint = fingerprint
        self.streams = streams
        self._payloads: Dict[Tuple[Any, ...], List[bytes]] = {}

    def payloads(
        self, op: Op, bounds: Tuple[Tuple[int, int], ...], pure: bool
    ) -> List[bytes]:
        """The chunk payloads in ``op``'s codec, cached per (codec, chunking, purity).

        The encoders are looked up in this module at call time, so a
        profiler that wraps them here sees every payload.
        """
        key = (op.ships_kinds, bounds, pure)
        cached = self._payloads.get(key)
        if cached is None:
            streams = self.streams
            if op.ships_kinds:
                cached = [encode_recognize_payload(streams[lo:hi], pure) for lo, hi in bounds]
            else:
                cached = [encode_parse_payload(streams[lo:hi]) for lo, hi in bounds]
            self._payloads[key] = cached
        return cached

    def __len__(self) -> int:
        return len(self.streams)

    def __repr__(self) -> str:
        return "PreparedBatch({}..., {} streams, {} encodings)".format(
            self.fingerprint[:12], len(self.streams), len(self._payloads)
        )


class _GrammarInfo:
    """Dispatcher-side state for one grammar.

    ``blob`` is the pickled grammar clone every registration replays;
    ``shard`` the ring assignment; ``acks`` one acknowledgement future per
    shard worker (the coordination point that keeps batches behind their
    registration without holding any lock across a pipe write);
    ``persisted``/``persist_requested`` drive the persist-once flow.
    """

    __slots__ = ("blob", "shard", "acks", "pure", "persisted", "persist_requested")

    def __init__(self, blob: bytes, shard: List[int], persisted: bool) -> None:
        self.blob = blob
        self.shard = shard
        self.acks: "Dict[int, Future[Any]]" = {}
        self.pure: bool = True
        self.persisted = persisted
        self.persist_requested = persisted


class PooledParseService:
    """Multi-process sharded parsing with the ``ParseService`` batch API.

    Parameters
    ----------
    workers:
        Worker *processes* (>= 1).  Throughput scales with this up to the
        machine's cores; each worker runs its own interpreter and table
        cache.
    replication:
        Workers per grammar on the hash ring (>= 1, capped at
        ``workers``).  One grammar's batches split across its replicas;
        more replication spreads a hot grammar wider at the cost of
        warming more caches.
    store:
        The warm-start table store: a :class:`TableStore`, a directory
        path, or None for a private temporary directory (fleet-lifetime
        warm starts only).
    inflight_per_worker:
        Batches one worker may have in flight before submission blocks
        (the backpressure bound).
    threads_per_worker:
        Thread count of each worker's inner service (default 1 — the
        pool's parallelism is processes, not threads).
    max_retries:
        Resends a request may consume across worker crashes before its
        future fails with :class:`WorkerCrashed`.
    metrics / observer:
        Dispatcher-side :class:`ServiceMetrics` / :class:`Observer`
        (defaults constructed, exactly like ``ParseService``).
    start_method:
        :mod:`multiprocessing` start method; default prefers ``fork``
        (sub-millisecond spawns) where available.

    The pool is a context manager; :meth:`close` stops the fleet.  The
    batch APIs are safe to call from any number of threads.
    """

    def __init__(
        self,
        workers: int = 4,
        replication: int = 2,
        store: Union[TableStore, str, None] = None,
        inflight_per_worker: int = 16,
        threads_per_worker: int = 1,
        max_retries: int = 1,
        metrics: Optional[ServiceMetrics] = None,
        observer: Optional[Observer] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1, got {}".format(workers))
        if replication < 1:
            raise ValueError("replication must be >= 1, got {}".format(replication))
        self.workers = workers
        self.replication = min(replication, workers)
        self.max_retries = max_retries
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.obs = observer if observer is not None else Observer()
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        if isinstance(store, TableStore):
            self.store = store
        elif isinstance(store, str):
            self.store = TableStore(store)
        else:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-pool-")
            self.store = TableStore(self._tempdir.name)
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else available[0]
        self._context = multiprocessing.get_context(start_method)
        self._ring = HashRing(workers)
        self._grammars: Dict[str, _GrammarInfo] = {}
        self._state_lock = threading.Lock()
        self._fingerprints = FingerprintMemo()
        self._closed = False
        self._handles = [
            WorkerHandle(
                index,
                self._context,
                self.store.root,
                threads_per_worker,
                inflight_per_worker,
                self._on_worker_down,
            )
            for index in range(workers)
        ]
        # Fork every process before starting any receiver thread: the
        # fleet boots from a thread-free parent.
        for handle in self._handles:
            handle.spawn()
        for handle in self._handles:
            handle.start_receiver()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop every worker and release a pool-owned store (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()
        if self._tempdir is not None:
            self._tempdir.cleanup()

    def __enter__(self) -> "PooledParseService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceClosed("this PooledParseService has been closed")

    def worker_pids(self) -> List[Optional[int]]:
        """The live worker process ids, by ring index (kill-test hook)."""
        return [handle.pid for handle in self._handles]

    # ------------------------------------------------------------ batch APIs
    def recognize_many(
        self, grammar: Any, streams: Union[Iterable[Sequence[Any]], PreparedBatch]
    ) -> List[bool]:
        """Recognize a batch across the grammar's shard; one bool per stream.

        Same contract as :meth:`ParseService.recognize_many` — answers in
        input order — with the batch split contiguously over the shard's
        workers and reassembled on the way back.
        """
        return self._run_batch(OPS["rec"], grammar, streams)

    def parse_many(
        self, grammar: Any, streams: Union[Iterable[Sequence[Any]], PreparedBatch]
    ) -> List[ParseOutcome]:
        """Parse a batch across the shard into :class:`ParseOutcome` objects.

        Trees and failure positions are produced by the workers'
        interpreted engines and shipped back whole — identical, tree for
        tree, to the in-process service's outcomes.
        """
        return self._run_batch(OPS["par"], grammar, streams)

    def enumerate_many(
        self,
        grammar: Any,
        streams: Union[Iterable[Sequence[Any]], PreparedBatch],
        k: Optional[int] = None,
        ranking: Any = "size",
    ) -> List[ForestOutcome]:
        """Top-``k`` trees per stream across the shard, best-first.

        Same contract — and byte-identical outcomes — as
        :meth:`ParseService.enumerate_many`: ranked extraction is
        deterministic, so sharding the batch cannot change any answer.
        The ranking crosses the pipe by its registered name (rankings are
        code, not data), so it must come from
        :data:`repro.core.forest_query.RANKINGS`; ``k`` is clamped to the
        tree budget before dispatch.
        """
        op = OPS["enu"]
        k, ranking = op.resolve((k, ranking))
        if RANKINGS.get(ranking.name) is not ranking:
            raise ValueError(
                "pooled enumeration needs a ranking registered in "
                "repro.core.forest_query.RANKINGS so workers can resolve it "
                "by name; {!r} is not registered".format(ranking.name)
            )
        return self._run_batch(op, grammar, streams, (k, ranking))

    def sample_many(
        self,
        grammar: Any,
        streams: Union[Iterable[Sequence[Any]], PreparedBatch],
        n: int = 1,
        seed: int = 0,
    ) -> List[ForestOutcome]:
        """``n`` uniform samples per stream across the shard.

        Byte-identical to :meth:`ParseService.sample_many` with the same
        ``seed``: each chunk ships ``seed + chunk_start``, so a worker's
        local ``seed + i`` lands on the exact global ``seed +
        stream_index`` the in-process service uses — chunking is invisible
        in the draws.
        """
        return self._run_batch(OPS["sam"], grammar, streams, (n, seed))

    def prepare(self, grammar: Any, streams: Iterable[Sequence[Any]]) -> PreparedBatch:
        """Wrap ``streams`` for repeated dispatch (see :class:`PreparedBatch`)."""
        self._require_open()
        fingerprint, _root = self._fingerprints.lookup(grammar)
        return PreparedBatch(fingerprint, list(streams))

    def _run_batch(
        self, op: Op, grammar: Any, streams: Any, args: Tuple[Any, ...] = ()
    ) -> List[Any]:
        """Shard, encode, fan out and reassemble one batch of ``op``.

        Each chunk's frame carries ``op.wire(args, lo)`` after the payload
        (the ``k``/ranking name of an enumeration, the ``n``/offset seed
        of a sampling run).
        """
        self._require_open()
        args = op.resolve(args)
        started = perf_counter_ns()
        with self.obs.tracer.request("pool_" + op.name + "_many") as trace:
            with stage("fingerprint"):
                fingerprint, root = self._fingerprints.lookup(grammar)
            if not isinstance(streams, PreparedBatch):
                streams = PreparedBatch(fingerprint, list(streams))
            elif streams.fingerprint != fingerprint:
                raise ValueError(
                    "PreparedBatch was prepared for grammar {}..., not {}...".format(
                        streams.fingerprint[:12], fingerprint[:12]
                    )
                )
            if not streams.streams:
                return []
            args = op.clamp(args, len(streams), self.metrics)
            info, _warm = self._ensure_registered(fingerprint, root)
            bounds = _chunk_bounds(len(streams), len(info.shard))
            with stage("dispatch"):
                payloads = streams.payloads(op, bounds, info.pure)
                futures = [
                    self._handles[info.shard[chunk]].submit(
                        op.tag, fingerprint, payload, *op.wire(args, bounds[chunk][0])
                    )
                    for chunk, payload in enumerate(payloads)
                ]
            self.metrics.inc("pool_dispatches", len(futures))
            results: List[Any] = []
            for future in futures:
                body, worker_ns = future.result()
                if trace is not None:
                    trace.add_span("worker", perf_counter_ns() - worker_ns, worker_ns)
                results.extend(body)
        self.obs.record("request_latency_ns", perf_counter_ns() - started)
        self.obs.record("batch_size", len(streams))
        if not info.persisted:
            self._request_persist(fingerprint, info)
        return results

    # ---------------------------------------------------------- registration
    def _ensure_registered(self, fingerprint: str, root: Any) -> Tuple[_GrammarInfo, int]:
        """Register ``root`` with every worker of its shard (idempotent).

        First sight pickles a clone of the grammar once (the blob every
        registration and every respawn replays; the clone drops any
        anchored compiled table, whose lock cannot be pickled) and assigns the
        shard off the ring.  Each shard worker gets one ``reg`` carrying
        the grammar's store path — the worker warm-loads from it when a
        serialized table is on disk instead of compiling — coordinated
        through per-worker acknowledgement futures created under the state
        lock but *sent* outside it (see the module's lock-order note):
        racing threads find the future and wait on it rather than
        re-sending.  Returns the info plus how many of the registrations
        this call sent were answered ``warm_loaded`` (what :meth:`preload`
        reports).
        """
        to_send: List[Tuple[WorkerHandle, "Future[Any]"]] = []
        with self._state_lock:
            info = self._grammars.get(fingerprint)
            if info is None:
                blob = pickle.dumps(clone_graph(root), WIRE_PROTOCOL)
                info = _GrammarInfo(
                    blob,
                    self._ring.shard(fingerprint, self.replication),
                    self.store.has(fingerprint),
                )
                self._grammars[fingerprint] = info
            for index in info.shard:
                if index not in info.acks:
                    ack: "Future[Any]" = Future()
                    info.acks[index] = ack
                    to_send.append((self._handles[index], ack))
        path = self.store.path_for(fingerprint)
        for handle, ack in to_send:
            handle.registered.add(fingerprint)
            submitted = handle.submit("reg", fingerprint, info.blob, path, slot=False)
            submitted.add_done_callback(lambda done, ack=ack: _chain(done, ack))
        warm_loaded = 0
        sent_acks = {id(ack) for _handle, ack in to_send}
        for index in list(info.shard):
            ack = info.acks[index]
            try:
                body, _worker_ns = ack.result()
            except BaseException:
                # Registration failed (worker kept crashing); un-claim the
                # slot so a later request can retry it, then surface.
                with self._state_lock:
                    if info.acks.get(index) is ack:
                        del info.acks[index]
                raise
            info.pure = bool(body["pure"])
            if id(ack) in sent_acks and body.get("warm_loaded"):
                warm_loaded += 1
        return info, warm_loaded

    def _request_persist(self, fingerprint: str, info: _GrammarInfo) -> None:
        """Ask the shard's primary to write its warm table to the store (once)."""
        with self._state_lock:
            if info.persist_requested:
                return
            info.persist_requested = True
        handle = self._handles[info.shard[0]]
        future = handle.submit("per", fingerprint, slot=False)

        def finished(done: "Future[Any]") -> None:
            if done.exception() is None:
                info.persisted = True
                self.metrics.inc("tables_persisted")
                self.obs.logger.log(
                    "table_persisted", fingerprint=fingerprint, worker=handle.index
                )
            else:
                # The worker died (or lost the table) before persisting;
                # let a later batch try again.
                with self._state_lock:
                    info.persist_requested = info.persisted

        future.add_done_callback(finished)

    def seed_store(self, grammar: Any, streams: Iterable[Sequence[Any]]) -> str:
        """Compile, warm and persist ``grammar``'s table dispatcher-side.

        The organic persist path saves whatever the shard's *primary*
        happened to explore, which under ``replication > 1`` is only its
        slice of the traffic.  ``seed_store`` instead builds a table in
        the dispatcher process, drives ``streams`` through it (a
        representative workload — e.g. the corpus a fleet will serve), and
        persists the result under the grammar's fingerprint.  A fleet
        :meth:`preload`-ed from the seeded store then recognizes that
        workload with **zero derivations on every worker** — the
        benchmark's cold-start gate.  Returns the stored path.
        """
        self._require_open()
        table = GrammarTable(grammar)
        parser = CompiledParser(table=table)
        for stream in streams:
            parser.recognize(stream)
        return self.store.persist(table)

    def preload(self, grammars: Iterable[Any]) -> int:
        """Register grammars fleet-wide ahead of traffic; returns warm loads.

        For each grammar, every worker on its shard gets a registration
        with the grammar's store path; when a serialized table is on disk
        there, the worker warm-loads it with **zero derivations**.
        A fleet restarted over a populated store serves its first request
        at warm-cache speed (the pool benchmark asserts fleet-wide
        ``derive_calls == 0`` after exactly this call).  Grammars missing
        from the store register cold: their shard compiles lazily on first
        traffic and the table is persisted for next time.  Returns the
        number of (grammar × worker) registrations that warm-loaded.
        """
        self._require_open()
        warm_loaded = 0
        for grammar in grammars:
            fingerprint, root = self._fingerprints.lookup(grammar)
            _info, warm = self._ensure_registered(fingerprint, root)
            warm_loaded += warm
        return warm_loaded

    # ------------------------------------------------------------- inspection
    def stats(self) -> Dict[str, Any]:
        """One fleet-wide stats dict, shaped like :meth:`ParseService.stats`.

        Worker service counters fold through
        :meth:`ServiceMetrics.merge_snapshot` together with the
        dispatcher's own (the ``pool_*`` counters live only here); engine
        counters fold through :meth:`Metrics.merge`; worker latency
        histograms fold under ``worker_``-prefixed series next to the
        dispatcher's end-to-end ones.  A ``pool`` section carries the
        per-worker breakdown (pid, generation, cached tables, request
        counts).
        """
        return self._collect()[0]

    def exposition(self) -> str:
        """Fleet :meth:`stats` rendered in Prometheus text format.

        The same families the in-process service exposes, now fleet-wide,
        plus the ``worker_``-prefixed histogram families and the
        ``pool_*`` dispatcher counters.
        """
        stats, histograms = self._collect()
        return prometheus_exposition(stats, histograms)

    def _collect(self) -> Tuple[Dict[str, Any], Dict[str, Histogram]]:
        """Gather and fold every worker's stats reply into the fleet view."""
        self._require_open()
        futures = [(handle, handle.submit("sta", slot=False)) for handle in self._handles]
        fleet = ServiceMetrics()
        fleet.merge_snapshot(self.metrics.snapshot())
        engine = Metrics()
        histograms: Dict[str, Histogram] = dict(self.obs.histogram_snapshots())
        tables_cached = 0
        table_capacity = 0
        live_sessions = 0
        per_worker: List[Dict[str, Any]] = []
        for handle, future in futures:
            body, _worker_ns = future.result()
            fleet.merge_snapshot(body["service"])
            engine.merge(Metrics(**body["engine"]))
            for series, shard in body["histograms"].items():
                folded = histograms.get("worker_" + series)
                if folded is None:
                    folded = histograms["worker_" + series] = Histogram()
                folded.merge(shard)
            tables_cached += body["tables_cached"]
            table_capacity += body["table_capacity"]
            live_sessions += body["live_sessions"]
            per_worker.append(
                {
                    "index": handle.index,
                    "pid": body["pid"],
                    "generation": handle.generation,
                    "tables_cached": body["tables_cached"],
                    "recognize_requests": body["service"].get("recognize_requests", 0),
                    "parse_requests": body["service"].get("parse_requests", 0),
                }
            )
        stats = {
            "service": fleet.snapshot(),
            "engine": engine.as_dict(),
            "tables_cached": tables_cached,
            "table_capacity": table_capacity,
            "live_sessions": live_sessions,
            "workers": self.workers,
            "latency": {name: hist.summary() for name, hist in histograms.items()},
            "traces": self.obs.tracer.digest(),
            "pool": {
                "workers": self.workers,
                "replication": self.replication,
                "store": self.store.root,
                "grammars": len(self._grammars),
                "per_worker": per_worker,
            },
        }
        return stats, histograms

    # ---------------------------------------------------------- crash handling
    def _on_worker_down(self, handle: WorkerHandle) -> None:
        """Receiver-thread callback: a worker died outside a deliberate close.

        Respawns the worker at the same ring index, replays its shard's
        registrations (warm from the store wherever a table was
        persisted), and resends what the dead process had in flight — all
        atomically under the handle's send lock, so concurrently blocked
        submitters land behind the re-registrations.  Requests exceeding
        ``max_retries`` fail with :class:`WorkerCrashed`.
        """
        if self._closed:
            return
        old_pid = handle.pid

        def provision(worker: WorkerHandle, drained: List[PendingRequest]) -> None:
            with self._state_lock:
                shard_grammars = [
                    (fingerprint, info)
                    for fingerprint, info in self._grammars.items()
                    if worker.index in info.shard
                ]
            for fingerprint, info in shard_grammars:
                path = self.store.path_for(fingerprint)
                worker.provision_send("reg", fingerprint, info.blob, path)
                worker.registered.add(fingerprint)
            for pending in drained:
                if pending.future.done():
                    continue
                if pending.retries + 1 > self.max_retries:
                    pending.future.set_exception(
                        WorkerCrashed(
                            "worker {} died {} time(s) handling this request".format(
                                worker.index, pending.retries + 1
                            )
                        )
                    )
                    continue
                self.metrics.inc("pool_retries")
                worker.resend(pending)

        handle.reincarnate(provision)
        self.metrics.inc("workers_respawned")
        self.obs.logger.log(
            "worker_respawned",
            index=handle.index,
            old_pid=old_pid,
            new_pid=handle.pid,
            generation=handle.generation,
        )

    def __repr__(self) -> str:
        return "PooledParseService(workers={}, replication={}, grammars={})".format(
            self.workers, self.replication, len(self._grammars)
        )


def _chain(done: "Future[Any]", ack: "Future[Any]") -> None:
    """Forward a transport future's outcome onto a registration ack."""
    if ack.done():  # pragma: no cover - defensive
        return
    exception = done.exception()
    if exception is not None:
        ack.set_exception(exception)
    else:
        ack.set_result(done.result())


def _chunk_bounds(n_streams: int, n_workers: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous, near-even ``(lo, hi)`` chunk bounds for a batch.

    At most ``n_workers`` chunks, never an empty one; the first
    ``n_streams % n_chunks`` chunks take the extra stream.
    """
    n_chunks = min(n_streams, n_workers)
    base, extra = divmod(n_streams, n_chunks)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for chunk in range(n_chunks):
        hi = lo + base + (1 if chunk < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return tuple(bounds)
