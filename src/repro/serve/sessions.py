"""Long-lived streaming parse sessions over the shared compiled tables.

A :class:`ParseSession` is the service-side wrapper around one streaming
parse — the ``create / feed / edit / checkpoint / close`` lifecycle a
network front-end needs when a client's token stream arrives in pieces
(and is then *edited*) over minutes.  Under the hood every session owns an
:class:`~repro.incremental.IncrementalDocument` — the token buffer plus
its checkpoint trail — driving a
:class:`~repro.compile.executor.CompiledState` cursor over the service's
shared :class:`~repro.compile.automaton.GrammarTable`: warm tokens cost
two dict probes, cold edges derive once under the table lock, any number
of sessions stream over one table concurrently, trees re-derive from the
buffer on a graph of their own (never under the table lock), failure
positions are read off the cursor, and :meth:`ParseSession.apply_edit`
rewinds the checkpoint trail
instead of reparsing from scratch.  A caller that only needs a verdict
over an unbounded stream uses the cursor itself
(:meth:`~repro.compile.executor.CompiledParser.start`), which keeps O(1)
memory.

Lifecycle rules, all asserted by ``tests/serve``:

* Each session owns a lock, so *the session object itself* may be driven
  from any thread — but one feed at a time (a token stream has an order).
* A session holds its :class:`~repro.serve.cache.CacheEntry` strongly, so
  evicting the grammar's table from the service's LRU cache mid-stream
  never corrupts the session: it keeps its table until it closes.
* :meth:`ParseSession.checkpoint` snapshots the automaton position in
  O(1), plus the token buffer and the O(1)-per-entry checkpoint trail;
  :meth:`SessionManager.restore` rehydrates a new session from the
  snapshot — trail included, so a restored session edits as cheaply as
  the original — for speculative feeding, client retry, "fork the stream
  here".
* Session ids are **manager-scoped**: every manager tags its ids with a
  process-unique prefix (``m3-s1``), so an id from one manager can never
  silently resolve against another manager's registry.
* Sessions idle longer than the manager's TTL are evicted by an
  opportunistic sweep (no reaper thread: sweeps piggyback on opens and on
  explicit :meth:`SessionManager.sweep` calls).  Idleness is decided
  *twice*: a candidate selected under the manager lock is re-validated
  under its own lock before eviction, so a session that a concurrent
  ``feed``/``tree`` just touched always survives — the sweep can never
  evict a session mid-use.  An evicted session is closed: feeding it
  raises :class:`SessionError`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..compile.automaton import AutomatonState
from ..compile.executor import CompiledParser, CompiledSnapshot
from ..core.errors import ReproError
from ..incremental import DEFAULT_CHECKPOINT_EVERY, EditResult, IncrementalDocument
from ..obs.logging import NULL_LOGGER, StructuredLogger
from ..obs.trace import stage
from .cache import CacheEntry
from .metrics import ServiceMetrics

__all__ = ["SessionError", "SessionCheckpoint", "ParseSession", "SessionManager"]


class SessionError(ReproError):
    """A session was used after it was closed or evicted, or never existed."""


class SessionCheckpoint:
    """An immutable snapshot of a session's progress, restorable later.

    Holds the automaton state reference and the stream position, plus the
    consumed-token buffer and the document's checkpoint trail (every entry
    an O(1) reference, the first at position 0), so a restored session can
    keep applying edits without rebuilding anything.
    A strong reference to the session's cache entry keeps the table the
    state belongs to alive across any cache eviction.
    """

    __slots__ = (
        "entry",
        "state",
        "position",
        "failure_position",
        "tokens",
        "trail",
        "checkpoint_every",
    )

    def __init__(
        self,
        entry: CacheEntry,
        state: AutomatonState,
        position: int,
        failure_position: Optional[int],
        tokens: Tuple[Any, ...],
        trail: Tuple[CompiledSnapshot, ...],
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.entry = entry
        self.state = state
        self.position = position
        self.failure_position = failure_position
        self.tokens = tokens
        self.trail = trail
        self.checkpoint_every = checkpoint_every

    def __repr__(self) -> str:
        return "SessionCheckpoint(position={}, trail={}, grammar={}...)".format(
            self.position,
            len(self.trail),
            self.entry.fingerprint[:12],
        )


class ParseSession:
    """One streaming parse: feed tokens, edit them, checkpoint, close.

    Mirrors the :class:`~repro.core.parse.ParserState` streaming surface
    (``feed``/``feed_all``/``accepts``/``failed``) with the service
    lifecycle on top, plus :meth:`apply_edit` for edit-aware incremental
    reparsing and tree queries over the buffer.  Like the engine states,
    **feed after failure is a no-op** — the failure position is kept, the
    corpse is cheap to feed, and the buffer does not grow (an
    :meth:`apply_edit` that repairs the stream revives it); feed after
    *close* is different and raises :class:`SessionError`, because a
    closed session's resources may already be reused.
    """

    def __init__(
        self,
        session_id: str,
        entry: CacheEntry,
        manager: "SessionManager",
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.session_id = session_id
        self.entry = entry
        self.checkpoint_every = checkpoint_every
        self._manager = manager
        self._parser = CompiledParser(table=entry.table)
        self._doc = IncrementalDocument(
            parser=self._parser, checkpoint_every=checkpoint_every
        )
        self._lock = threading.Lock()
        self.closed = False
        #: Why the session ended: None while live, "closed" or "evicted".
        self.end_reason: Optional[str] = None
        self.last_used = manager.clock()

    # ------------------------------------------------------------- predicates
    @property
    def position(self) -> int:
        """Number of tokens consumed so far."""
        return self._doc.position

    @property
    def failed(self) -> bool:
        """True once the automaton entered the ``∅`` sink."""
        return self._doc.failed

    @property
    def failure_position(self) -> Optional[int]:
        """Index of the token that killed the stream, or None while alive."""
        return self._doc.structural_failure_position

    def accepts(self) -> bool:
        """True when the tokens consumed so far form a complete parse.

        Raises :class:`SessionError` once closed/evicted, like every other
        operation — a liveness probe must not silently answer from a
        deregistered session.
        """
        with self._lock:
            self._use()
            return self._doc.accepts()

    # ---------------------------------------------------------------- driving
    def feed(self, token: Any) -> "ParseSession":
        """Consume one token (no-op once failed; raises once closed)."""
        with self._lock:
            self._use()
            if not self._doc.failed:
                self._doc.append(token)
        return self

    def feed_all(self, tokens: Iterable[Any]) -> "ParseSession":
        """Consume every token from an iterable (stops pulling on failure)."""
        with self._lock:
            self._use()
            for token in tokens:
                if self._doc.failed:
                    break
                self._doc.append(token)
        return self

    # ----------------------------------------------------------------- edits
    def apply_edit(
        self, start: int, end: int, new_tokens: Iterable[Any]
    ) -> EditResult:
        """Replace ``tokens[start:end]`` with ``new_tokens``, reparsing cheaply.

        Rewinds the session's checkpoint trail to the nearest checkpoint
        at or before ``start`` and replays only the changed region (see
        :meth:`repro.incremental.IncrementalDocument.apply_edit`).
        """
        with self._lock:
            self._use()
            with stage("session_edit"):
                result = self._doc.apply_edit(start, end, list(new_tokens))
        self._manager.metrics.inc("edits_applied")
        self._manager.metrics.inc("edit_tokens_refed", result.refed_tokens)
        return result

    @property
    def tokens(self) -> Tuple[Any, ...]:
        """The consumed-token buffer."""
        with self._lock:
            self._require_open()
            return self._doc.tokens

    # ---------------------------------------------------------------- results
    def tree(self) -> Any:
        """One parse tree of the consumed tokens.

        The document re-derives the buffer through the compiled parser's
        interpreted fallback, on the fallback's own graph (see
        :class:`~repro.compile.executor.CompiledParser`); raises
        :class:`~repro.core.errors.ParseError` at the exact failing token
        when the consumed prefix is not a complete parse.
        """
        with self._lock:
            self._use()
            return self._doc.tree()

    def trees(self, k: Optional[int] = None, ranking: Any = None) -> List[Any]:
        """Parse trees of the consumed tokens.

        With ``ranking`` set, trees come best-first under that ranking via
        the forest-query layer; ``k`` bounds how many are materialized
        either way.
        """
        with self._lock:
            self._use()
            return self._doc.parse_trees(limit=k, ranking=ranking)

    def sample(self, rng: Any, n: int = 1) -> List[Any]:
        """Uniform samples from the session's parse forest.

        ``rng`` is a :class:`random.Random` or an int seed; sampling is
        exact and count-proportional (see
        :func:`repro.core.forest_query.sample_trees`).
        """
        with self._lock:
            self._use()
            return self._doc.sample_parses(rng, n)

    # ------------------------------------------------------------- lifecycle
    def checkpoint(self) -> SessionCheckpoint:
        """Snapshot the current progress for a later :meth:`SessionManager.restore`.

        The buffer and checkpoint trail ride along (each trail entry is one
        state reference), so the restored session supports
        :meth:`apply_edit` at full fidelity.
        """
        with self._lock:
            self._use()
            snapshot = self._doc.state_snapshot()
            checkpoint = SessionCheckpoint(
                entry=self.entry,
                state=snapshot.state,
                position=snapshot.position,
                failure_position=snapshot.failure_position,
                tokens=self._doc.tokens,
                trail=self._doc.trail_snapshots(),
                checkpoint_every=self.checkpoint_every,
            )
        self._manager.metrics.inc("checkpoints_taken")
        return checkpoint

    def close(self) -> None:
        """End the session and release it from the manager (idempotent)."""
        self._manager.close(self.session_id)

    def _end(self, reason: str) -> None:
        """Mark the session dead (manager-internal; registry already updated)."""
        with self._lock:
            self._end_locked(reason)

    def _end_locked(self, reason: str) -> None:
        """Mark the session dead; caller already holds the session lock."""
        if not self.closed:
            self.closed = True
            self.end_reason = reason

    def _require_open(self) -> None:
        if self.closed:
            raise SessionError(
                "session {!r} is {} and cannot be used".format(
                    self.session_id, self.end_reason or "closed"
                )
            )

    def _touch(self) -> None:
        self.last_used = self._manager.clock()

    def _use(self) -> None:
        """Refuse a closed session, else mark it used (lock held)."""
        self._require_open()
        self._touch()

    def __repr__(self) -> str:
        status = self.end_reason if self.closed else (
            "failed@{}".format(self.failure_position) if self.failed else "alive"
        )
        return "ParseSession({}, position={}, {})".format(
            self.session_id, self.position, status
        )


class SessionManager:
    """Registry of live sessions with TTL-based idle eviction.

    ``idle_ttl`` is in seconds of ``clock`` time (``time.monotonic`` by
    default; tests inject a fake clock); ``None`` disables eviction.
    Sweeps run opportunistically on :meth:`open` — a service that opens
    sessions keeps its registry tidy without a background thread — and on
    demand via :meth:`sweep`.

    Session ids are drawn from a **per-manager** counter and prefixed
    with a process-unique manager tag, so co-resident managers (two
    services in one process, a test harness next to a service) can never
    mint colliding ids or resolve each other's sessions by accident.
    """

    #: Process-wide source of manager tags only; session counters are
    #: per-instance (a shared session counter once let ids from different
    #: managers interleave — and resolve — across registries).
    _manager_tags = itertools.count(1)

    def __init__(
        self,
        metrics: Optional[ServiceMetrics] = None,
        idle_ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.logger = logger if logger is not None else NULL_LOGGER
        self.idle_ttl = idle_ttl
        self.clock = clock
        self.tag = "m{}".format(next(SessionManager._manager_tags))
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._sessions: Dict[str, ParseSession] = {}

    # ------------------------------------------------------------------ API
    def open(
        self,
        entry: CacheEntry,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> ParseSession:
        """Create and register a session over ``entry``'s compiled table."""
        self.sweep()
        session_id = "{}-s{}".format(self.tag, next(self._ids))
        session = ParseSession(
            session_id, entry, self, checkpoint_every=checkpoint_every
        )
        with self._lock:
            self._sessions[session_id] = session
        self.metrics.inc("sessions_opened")
        self.logger.log(
            "session_opened",
            session=session_id,
            grammar=entry.fingerprint[:12],
        )
        return session

    def restore(self, checkpoint: SessionCheckpoint) -> ParseSession:
        """Open a new session resuming exactly at ``checkpoint``.

        The new session is independent of the one that took the snapshot
        (which may since have advanced, failed or closed): same automaton
        state, same position, same buffer and checkpoint trail, its own
        lifecycle.  It is registered, touched and evictable like
        any freshly opened session, and counted in ``sessions_restored``.
        """
        session = self.open(
            checkpoint.entry, checkpoint_every=checkpoint.checkpoint_every
        )
        snapshot = CompiledSnapshot(
            checkpoint.state, checkpoint.position, checkpoint.failure_position
        )
        try:
            # The session is already published in the registry: mutate its
            # state only under its own lock, like every other session op.
            with session._lock:
                session._doc = IncrementalDocument.restore(
                    session._parser,
                    checkpoint.tokens,
                    checkpoint.trail,
                    snapshot,
                    checkpoint_every=checkpoint.checkpoint_every,
                )
        except BaseException:
            # Never leak a half-initialized session in the registry.
            self.close(session.session_id)
            raise
        self.metrics.inc("sessions_restored")
        self.logger.log(
            "session_restored",
            session=session.session_id,
            position=checkpoint.position,
            grammar=checkpoint.entry.fingerprint[:12],
        )
        return session

    def get(self, session_id: str) -> ParseSession:
        """Look up a live session by id (raises :class:`SessionError` if gone)."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError("no live session {!r}".format(session_id))
        return session

    def close(self, session_id: str) -> None:
        """Close and deregister a session (idempotent)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is not None and not session.closed:
            session._end("closed")
            self.metrics.inc("sessions_closed")
            self.logger.log(
                "session_closed", session=session_id, position=session.position
            )

    def sweep(self, now: Optional[float] = None) -> int:
        """Evict every session idle longer than ``idle_ttl``; return the count.

        Eviction is two-phase to close the select-then-evict race: idle
        *candidates* are gathered under the manager lock, then each is
        re-validated — and marked ended — under its **own** lock, so a
        session whose ``feed``/``tree`` touched it between the two reads
        (or is holding its lock mid-operation right now) is skipped, never
        ended mid-use.  Only then are the confirmed corpses deregistered.
        """
        if self.idle_ttl is None:
            return 0
        if now is None:
            now = self.clock()
        cutoff = now - self.idle_ttl
        with self._lock:
            candidates = [
                session
                for session in self._sessions.values()
                if session.last_used <= cutoff
            ]
        evicted: List[ParseSession] = []
        for session in candidates:
            with session._lock:
                # Re-validate under the session's lock: a concurrent op may
                # have touched (or closed) it after the candidate scan.
                if session.closed or session.last_used > cutoff:
                    continue
                session._end_locked("evicted")
                evicted.append(session)
        if evicted:
            with self._lock:
                for session in evicted:
                    self._sessions.pop(session.session_id, None)
            self.metrics.inc("sessions_evicted", len(evicted))
            for session in evicted:
                self.logger.log(
                    "session_evicted",
                    session=session.session_id,
                    position=session.position,
                )
        return len(evicted)

    def live_sessions(self) -> List[ParseSession]:
        """Every currently registered session."""
        with self._lock:
            return list(self._sessions.values())

    def close_all(self) -> None:
        """Close every registered session (service shutdown)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        closed = 0
        for session in sessions:
            if not session.closed:
                session._end("closed")
                closed += 1
        if closed:
            self.metrics.inc("sessions_closed", closed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
