"""Pipe transport between the pool dispatcher and its worker processes.

One worker process runs :func:`worker_main`: an inner
:class:`~repro.serve.ParseService` plus a registry of the grammars its
shard serves, reading request tuples off a duplex
:mod:`multiprocessing` pipe and answering each in arrival order.  The
dispatcher side holds one :class:`WorkerHandle` per worker: it frames
requests, tracks them until their reply arrives on a dedicated receiver
thread, bounds how many batches may be in flight (backpressure), and —
when the pipe goes quiet because the process died — hands everything
still pending to the pool's crash handler for respawn and resend.

**Wire format.**  Requests are tuples ``(tag, req_id, ...)`` with string
tags; replies are ``("ok", req_id, result, worker_ns)`` or
``("err", req_id, message, worker_ns)`` where ``worker_ns`` is the
worker-side handling time (filed into request traces as a ``worker``
span).  Batch payloads are **pre-pickled bytes**, not live objects, for
two reasons: the dispatcher can cache an encoding and replay it across
calls (:class:`repro.serve.pool.PreparedBatch`), and recognition batches
on kind-pure grammars are encoded as *kind strings only* — recognition
on a kind-pure table is value-insensitive (the edge dicts' premise),
and a bare string is its own kind, so shipping ``tok.kind`` instead of
pickling every ``Tok`` cuts the per-token wire cost by ~60× (measured;
the difference between the pool beating the in-process service and
losing to it).  Parse batches always carry the real tokens — trees hold
token values.

**Delivery contract.**  Within one live worker process the pipe is FIFO,
so a grammar registration sent before a batch is always applied before
it.  Across a crash the handle's pending set is replayed by the pool;
a request caught mid-send during the crash window may be delivered
twice, which is safe (recognition and tree extraction are pure) — the
duplicate reply finds no pending entry and is dropped.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
from collections import OrderedDict
from concurrent.futures import Future
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..core.languages import token_kind
from .service import OPS, ParseService
from .store import TableStore

__all__ = [
    "WorkerCrashed",
    "WorkerError",
    "WorkerHandle",
    "PendingRequest",
    "encode_recognize_payload",
    "encode_parse_payload",
    "decode_payload",
    "worker_main",
]

#: Pickle protocol for everything crossing the pipe (payloads and frames).
WIRE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Decoded batch payloads a worker memoizes (a PreparedBatch replayed
#: against the same worker decodes once, not per call).
_DECODE_CACHE_SIZE = 8


class WorkerError(ReproError):
    """A worker process answered a request with an error (request-scoped).

    The remote exception's type and message, re-raised dispatcher-side for
    the one request that caused it; the worker itself is still healthy and
    keeps serving.
    """


class WorkerCrashed(ReproError):
    """A request could not complete because its worker died too many times.

    Raised from a pending request's future when the pool's resend budget
    (``max_retries``) is exhausted — every retry landed on a worker that
    died before answering.
    """


# --------------------------------------------------------------------------
# payload encoding
# --------------------------------------------------------------------------

def _kinds_only(streams: Sequence[Sequence[Any]]) -> Optional[List[List[str]]]:
    """The batch as kind-string rows, or None when any kind is not a string."""
    rows: List[List[str]] = []
    for stream in streams:
        row: List[str] = []
        for token in stream:
            kind = token_kind(token)
            if not isinstance(kind, str):
                return None
            row.append(kind)
        rows.append(row)
    return rows


def encode_recognize_payload(streams: Sequence[Sequence[Any]], pure: bool) -> bytes:
    """Encode a recognition batch for the wire.

    On a kind-pure grammar the streams ship as kind strings (value-free,
    ~60× cheaper to pickle than token objects; sound because kind-pure
    recognition never reads a value and a bare string is its own kind).
    Impure grammars — and exotic tokens with non-string kinds — fall back
    to shipping the tokens themselves.
    """
    if pure:
        rows = _kinds_only(streams)
        if rows is not None:
            return pickle.dumps(("kinds", rows), WIRE_PROTOCOL)
    return pickle.dumps(("toks", [list(stream) for stream in streams]), WIRE_PROTOCOL)


def encode_parse_payload(streams: Sequence[Sequence[Any]]) -> bytes:
    """Encode a parse batch (always the real tokens — trees carry values)."""
    return pickle.dumps(("toks", [list(stream) for stream in streams]), WIRE_PROTOCOL)


def decode_payload(payload: bytes, cache: "OrderedDict[bytes, List[List[Any]]]") -> List[List[Any]]:
    """Decode a batch payload (worker side) through the LRU ``cache``.

    ``kinds`` rows decode to lists of bare strings, which the engines
    treat as tokens whose kind is the string itself.  The cache keys on
    the payload bytes, so a :class:`~repro.serve.pool.PreparedBatch`
    replayed at a worker unpickles once.
    """
    hit = cache.get(payload)
    if hit is not None:
        cache.move_to_end(payload)
        return hit
    _tag, streams = pickle.loads(payload)
    cache[payload] = streams
    while len(cache) > _DECODE_CACHE_SIZE:
        cache.popitem(last=False)
    return streams


# --------------------------------------------------------------------------
# worker process
# --------------------------------------------------------------------------

def worker_main(conn: Any, store_root: str, threads: int, index: int) -> None:
    """One pool worker: serve requests off ``conn`` until ``bye`` or EOF.

    Runs an inner :class:`ParseService` (``threads`` threads — usually 1;
    process-level parallelism is the pool's job) and a registry of the
    shard's grammars, keyed by fingerprint.  Requests are handled strictly
    in arrival order, so a registration always precedes the batches that
    rely on it.  SIGINT is ignored — shutdown is the dispatcher's ``bye``
    (or its ``terminate()``), never an inherited Ctrl-C.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    store = TableStore(store_root)
    service = ParseService(workers=threads)
    grammars: Dict[str, Any] = {}
    decode_cache: "OrderedDict[bytes, List[List[Any]]]" = OrderedDict()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "bye":
                break
            req_id = message[1]
            started = perf_counter_ns()
            try:
                result = _handle(message, service, store, grammars, decode_cache)
            except BaseException as exc:  # noqa: BLE001 - the reply IS the report
                reply = (
                    "err",
                    req_id,
                    "{}: {}".format(type(exc).__name__, exc),
                    perf_counter_ns() - started,
                )
            else:
                reply = ("ok", req_id, result, perf_counter_ns() - started)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        service.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def _handle(
    message: Tuple[Any, ...],
    service: ParseService,
    store: TableStore,
    grammars: Dict[str, Any],
    decode_cache: "OrderedDict[bytes, List[List[Any]]]",
) -> Any:
    """Dispatch one request tuple to the worker's inner service."""
    tag = message[0]
    op = OPS.get(tag)
    if op is not None:
        # A batch: ``(tag, req_id, fingerprint, payload, *op.wire(args, lo))``.
        # Tree counts arrive clamped and seeds offset by the chunk start,
        # so the inner service answers exactly as the in-process one would.
        _tag, _req_id, fingerprint, payload, *args = message
        streams = decode_payload(payload, decode_cache)
        return service._run_many(op, _grammar(grammars, fingerprint), streams, tuple(args))
    if tag == "reg":
        _tag, _req_id, fingerprint, blob, table_path = message
        if fingerprint in grammars:
            entry = service.tables.peek(fingerprint)
            return {
                "pure": entry.table.pure if entry is not None else True,
                "warm_loaded": False,
            }
        root = pickle.loads(blob)
        warm_loaded = False
        if os.path.exists(table_path):
            warm_loaded = service.warm_start([table_path], lambda _fp: root) > 0
        grammars[fingerprint] = root
        # The dispatcher fingerprinted this grammar already.
        service._fingerprints.remember(root, fingerprint)
        entry = service.table_for(root)
        return {"pure": entry.table.pure, "warm_loaded": warm_loaded}
    if tag == "per":
        _tag, _req_id, fingerprint = message
        entry = service.tables.peek(fingerprint)
        if entry is None:
            raise WorkerError(
                "cannot persist {}: not in this worker's table cache".format(
                    fingerprint[:12]
                )
            )
        # Requests are serialized through this loop, so no batch is
        # deriving into the table while it is being dumped.
        return store.persist(entry.table, overwrite=False)
    if tag == "sta":
        stats = service.stats()
        stats["histograms"] = service.obs.histogram_snapshots()
        stats["pid"] = os.getpid()
        return stats
    raise WorkerError("unknown request tag {!r}".format(tag))


def _grammar(grammars: Dict[str, Any], fingerprint: str) -> Any:
    """The registered grammar for ``fingerprint`` (a crisp error when absent)."""
    try:
        return grammars[fingerprint]
    except KeyError:
        raise WorkerError(
            "grammar {} was never registered with this worker".format(fingerprint[:12])
        ) from None


# --------------------------------------------------------------------------
# dispatcher side
# --------------------------------------------------------------------------

class PendingRequest:
    """One in-flight request: its frame, its future, and its resend count."""

    __slots__ = ("message", "future", "retries")

    def __init__(self, message: Tuple[Any, ...], future: "Future[Any]", retries: int) -> None:
        self.message = message
        self.future = future
        self.retries = retries

    def __repr__(self) -> str:
        return "PendingRequest({}, retries={})".format(self.message[0], self.retries)


class WorkerHandle:
    """The dispatcher's end of one worker: framing, tracking, backpressure.

    Parameters
    ----------
    index:
        The worker's stable position in the pool (its hash-ring identity —
        respawns keep it).
    context:
        The :mod:`multiprocessing` context to spawn with.
    store_root:
        Table-store directory the worker warm-starts from.
    threads:
        Thread count of the worker's inner service.
    inflight:
        Maximum *slotted* requests (batches) in flight at once; submitting
        past it blocks the dispatcher thread — the pool's backpressure.
    on_down:
        Called (from the receiver thread) when the pipe dies outside a
        deliberate close; receives this handle.

    Locking: the send lock serializes every frame written to the pipe
    *and* the crash/respawn transition, so a dispatcher thread blocked on
    it during a respawn wakes up talking to the replacement process, with
    the shard's grammars already re-registered ahead of it in the pipe.
    The pending map has its own lock so the receiver thread never waits
    behind a writer blocked on a full pipe.
    """

    def __init__(
        self,
        index: int,
        context: Any,
        store_root: str,
        threads: int,
        inflight: int,
        on_down: Callable[["WorkerHandle"], None],
    ) -> None:
        self.index = index
        self.generation = 0
        #: Fingerprints the *current* process has been sent a ``reg`` for
        #: (pool-managed; cleared on respawn).
        self.registered: set = set()
        self.process: Any = None
        self._context = context
        self._store_root = store_root
        self._threads = threads
        self._inflight = inflight
        self._on_down = on_down
        self._conn: Any = None
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, PendingRequest] = {}
        self._req_ids = itertools.count()
        self.slots = threading.Semaphore(inflight)
        self._closing = False

    # ------------------------------------------------------------- lifecycle
    def spawn(self) -> None:
        """Start the worker process (receiver thread started separately).

        Split from :meth:`start_receiver` so a pool booting N workers can
        fork all processes before it starts any threads — fork-after-thread
        is the pattern to avoid, not fork-then-thread.
        """
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        self.process = self._context.Process(
            target=worker_main,
            args=(child_conn, self._store_root, self._threads, self.index),
            name="repro-pool-worker-{}".format(self.index),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._conn = parent_conn

    def start_receiver(self) -> None:
        """Start the thread that reads this generation's replies."""
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(self._conn, self.generation),
            name="repro-pool-recv-{}-g{}".format(self.index, self.generation),
            daemon=True,
        )
        receiver.start()

    @property
    def pid(self) -> Optional[int]:
        """The live worker process id (None before spawn)."""
        return self.process.pid if self.process is not None else None

    def close(self, timeout: float = 5.0) -> None:
        """Politely stop the worker; escalate to terminate after ``timeout``."""
        self._closing = True
        try:
            with self._send_lock:
                self._conn.send(("bye",))
        except (OSError, AttributeError, ValueError):
            pass
        if self.process is not None:
            self.process.join(timeout)
            if self.process.is_alive():  # pragma: no cover - slow-exit fallback
                self.process.terminate()
                self.process.join(timeout)
        try:
            self._conn.close()
        except (OSError, AttributeError):
            pass
        for pending in self.take_pending():
            if not pending.future.done():
                pending.future.set_exception(
                    WorkerCrashed(
                        "worker {} closed with request still pending".format(self.index)
                    )
                )

    # ------------------------------------------------------------ submission
    def submit(
        self, tag: str, *args: Any, retries: int = 0, slot: bool = True
    ) -> "Future[Any]":
        """Frame and send one request; the future resolves to ``(result, ns)``.

        ``slot=True`` (batches) acquires one of the handle's in-flight
        slots first — blocking when the worker is ``inflight`` batches
        behind — and releases it when the future completes, whatever the
        outcome.  Control traffic (``reg``/``sta``/``per``) passes
        ``slot=False`` so it cannot deadlock behind the very batches it
        manages.
        """
        future: "Future[Any]" = Future()
        if slot:
            slots = self.slots  # bind: a respawn swaps self.slots for a fresh one
            slots.acquire()
            future.add_done_callback(lambda _f: slots.release())
        with self._send_lock:
            self._locked_send(PendingRequest((tag,) + (next(self._req_ids),) + args, future, retries))
        return future

    def _locked_send(self, pending: PendingRequest) -> None:
        """Register ``pending`` and write its frame (send lock held by caller)."""
        with self._pending_lock:
            self._pending[pending.message[1]] = pending
        try:
            self._conn.send(pending.message)
        except (BrokenPipeError, OSError, ValueError):
            # The process died under us: leave the request pending — the
            # receiver's EOF is about to hand it to the crash handler.
            pass

    def take_pending(self) -> List[PendingRequest]:
        """Drain and return every tracked in-flight request."""
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        return pending

    # ---------------------------------------------------------- reincarnation
    def reincarnate(
        self, provision: Callable[["WorkerHandle", List[PendingRequest]], None]
    ) -> None:
        """Replace a dead process, atomically with re-provisioning.

        Under the send lock: drain the pending set, reset the slot
        semaphore (drained requests keep their claim on the *old* one, so
        resends never deadlock on slots), bump the generation, spawn the
        replacement and its receiver, then run ``provision(handle,
        drained)`` — the pool re-registers the shard's grammars and
        resends the drained requests through :meth:`provision_send`.  Only
        then does the lock release, so any dispatcher thread that was
        blocked mid-submit wakes up behind the re-registrations in pipe
        order.
        """
        with self._send_lock:
            drained = self.take_pending()
            self.registered = set()
            self.slots = threading.Semaphore(self._inflight)
            self.generation += 1
            try:
                self._conn.close()
            except (OSError, AttributeError):
                pass
            self.spawn()
            self.start_receiver()
            provision(self, drained)

    def provision_send(
        self, tag: str, *args: Any, future: "Optional[Future[Any]]" = None, retries: int = 0
    ) -> "Future[Any]":
        """Send from inside a :meth:`reincarnate` provision callback.

        Identical framing to :meth:`submit` but assumes the caller already
        holds the send lock and never touches the slot semaphore (drained
        requests were admitted once; re-admitting them could deadlock the
        crash handler).
        """
        if future is None:
            future = Future()
        self._locked_send(PendingRequest((tag,) + (next(self._req_ids),) + args, future, retries))
        return future

    def resend(self, pending: PendingRequest) -> None:
        """Replay a drained request on the current process (provision-only)."""
        pending.retries += 1
        self._locked_send(pending)

    # -------------------------------------------------------------- receiving
    def _receive_loop(self, conn: Any, generation: int) -> None:
        """Resolve replies for one process generation; report its death."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            tag, req_id, body, worker_ns = message
            with self._pending_lock:
                pending = self._pending.pop(req_id, None)
            if pending is None:
                continue  # duplicate delivery from a crash window; drop
            if pending.future.done():  # pragma: no cover - cancelled caller
                continue
            if tag == "ok":
                pending.future.set_result((body, worker_ns))
            else:
                pending.future.set_exception(WorkerError(body))
        if not self._closing and generation == self.generation:
            self._on_down(self)

    def __repr__(self) -> str:
        return "WorkerHandle(index={}, pid={}, generation={})".format(
            self.index, self.pid, self.generation
        )
