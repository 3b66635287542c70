"""Edit-aware incremental reparsing over checkpoint trails.

The PLDI'16 structures make incremental reparsing nearly free to set up:
every prefix of a parse is pinned by an O(1) snapshot (interpreted
derived-language graphs are persistent; compiled automaton states are
interned), so a :class:`~repro.incremental.trail.CheckpointTrail` of one
snapshot every *k* tokens costs a few references per kilotoken.
:class:`IncrementalDocument` owns the one authoritative token buffer plus
that trail — recorded by the document itself, one snapshot of the engine
cursor at every *k*-th position the parse reaches alive — and implements
``apply_edit(start, end, new_tokens)`` as:

1. **Rewind** to the rightmost checkpoint at or before ``start`` (O(1) —
   adopt the snapshot by reference), discarding the now-invalid
   checkpoints beyond it.
2. **Re-feed** the changed region from there, recording fresh
   checkpoints as the replay crosses multiples of *k*.
3. **Re-converge** (compiled engine only): once the replay is past the
   edited region the remaining tokens are exactly the old suffix, so a
   *shadow cursor* — the old parse resumed from its own nearest
   checkpoint — walks in lock-step with the replay, and the moment both
   cursors sit on the *same interned automaton state* every later
   transition is provably identical: the replay stops, the old trail's
   suffix is spliced back (positions shifted by the edit's length
   delta), and the old final state is adopted.  Re-fed work is then
   bounded by ``checkpoint interval + edit size + convergence lag``
   instead of the suffix length.

The interpreted engine deliberately skips step 3: its derived graphs
carry the parse *payloads* of the consumed prefix (that is how
``parse-null`` extracts trees), so after an edit the old and new chains
are never the same object even when recognition-equivalent — an
interpreted edit re-feeds the whole suffix, which still beats a full
reparse by ``position / suffix`` and is exact for trees.  Compiled
automaton states are value-insensitive (token-class transitions, no
payloads), which is precisely why they re-converge — and why compiled
documents extract trees through the engine's usual interpreted fallback
over the buffer.

**Parity contract** (asserted by ``tests/differential``): after any edit
sequence, ``recognize()``, ``tree()`` and the diagnosed failure position
agree exactly with a from-scratch parse of the current buffer on the
same engine.

Like a :class:`~repro.core.parse.DerivativeParser`, a document is a
single-caller object — wrap it in a lock to share it across threads
(:class:`repro.serve.ParseSession` does exactly that).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..compile.executor import CompiledParser, CompiledSnapshot
from ..core.errors import ParseError
from ..core.forest import ForestNode
from ..core.metrics import Metrics
from ..core.parse import DerivativeParser, ParserSnapshot, forest_answer
from ..obs.trace import stage
from .trail import CheckpointTrail

__all__ = ["EditResult", "IncrementalDocument"]

#: Tokens between checkpoints when the caller does not choose.
DEFAULT_CHECKPOINT_EVERY = 64


class EditResult:
    """What one :meth:`IncrementalDocument.apply_edit` actually did.

    ``refed_tokens`` is the number of tokens genuinely re-derived (the
    edit's real cost); ``rewound_to`` the checkpoint position the replay
    started from; ``converged_at`` the buffer position where the replay
    re-joined the old parse and spliced its trail (None when it re-fed to
    the end — always None on the interpreted engine).
    """

    __slots__ = (
        "start",
        "end",
        "removed",
        "inserted",
        "rewound_to",
        "refed_tokens",
        "converged_at",
        "length",
    )

    def __init__(
        self,
        start: int,
        end: int,
        removed: int,
        inserted: int,
        rewound_to: int,
        refed_tokens: int,
        converged_at: Optional[int],
        length: int,
    ) -> None:
        self.start = start
        self.end = end
        self.removed = removed
        self.inserted = inserted
        self.rewound_to = rewound_to
        self.refed_tokens = refed_tokens
        self.converged_at = converged_at
        self.length = length

    def __repr__(self) -> str:
        return (
            "EditResult([{}:{}) -{} +{}, rewound_to={}, refed={}, "
            "converged_at={}, length={})".format(
                self.start,
                self.end,
                self.removed,
                self.inserted,
                self.rewound_to,
                self.refed_tokens,
                self.converged_at,
                self.length,
            )
        )


class IncrementalDocument:
    """A token buffer whose parse survives edits by rewinding a checkpoint trail.

    Parameters
    ----------
    grammar:
        Anything the chosen engine's parser constructor accepts.  Ignored
        when ``parser`` is given.
    tokens:
        Initial buffer contents, fed on construction.
    checkpoint_every:
        Trail density *k*: one O(1) snapshot per ``k`` consumed tokens.
        Smaller ``k`` means less re-feeding per edit and a longer trail.
    engine:
        ``"interpreted"`` (alias ``"derivative"``) or ``"compiled"``.
    parser:
        An existing :class:`~repro.core.parse.DerivativeParser` or
        :class:`~repro.compile.executor.CompiledParser` to drive instead
        of constructing one (e.g. a parser over a service's shared table).
    metrics:
        Optional :class:`~repro.core.metrics.Metrics` for the
        ``edits_applied`` / ``edit_tokens_refed`` / ``edit_splices``
        counters; defaults to the interpreted parser's own instance, or a
        private one for compiled documents (whose table metrics are only
        written under the table lock).
    """

    def __init__(
        self,
        grammar: Any = None,
        tokens: Iterable[Any] = (),
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        engine: str = "interpreted",
        parser: Any = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                "checkpoint_every must be >= 1, got {}".format(checkpoint_every)
            )
        if parser is None:
            if grammar is None:
                raise ValueError("IncrementalDocument needs a grammar or a parser")
            if engine in ("interpreted", "derivative"):
                parser = DerivativeParser(grammar)
            elif engine == "compiled":
                parser = CompiledParser(grammar)
            else:
                raise ValueError(
                    "unknown engine {!r}; expected 'interpreted' or 'compiled'".format(
                        engine
                    )
                )
        self._parser = parser
        self._compiled = isinstance(parser, CompiledParser)
        self.checkpoint_every = checkpoint_every
        if metrics is not None:
            self.metrics = metrics
        elif self._compiled:
            self.metrics = Metrics()
        else:
            self.metrics = parser.metrics
        self._tokens: List[Any] = []
        self._trail = CheckpointTrail()
        self._state = parser.start()
        self._trail.record(self._state.snapshot())
        self.extend(tokens)

    # --------------------------------------------------------- construction
    @classmethod
    def restore(
        cls,
        parser: Any,
        tokens: Sequence[Any],
        trail: Sequence[Any],
        snapshot: Any,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        metrics: Optional[Metrics] = None,
    ) -> "IncrementalDocument":
        """Rebuild a document from captured state without re-feeding anything.

        ``trail`` must be the snapshot sequence of a previous document over
        the same engine artifact (its first snapshot anchors position 0)
        and ``snapshot`` that document's final state; everything is adopted
        by reference in O(trail length).  This is what trail-aware session
        restore (:meth:`repro.serve.SessionManager.restore`) runs.
        """
        document = cls(parser=parser, checkpoint_every=checkpoint_every, metrics=metrics)
        if not trail or trail[0].position != 0:
            raise ValueError("a restorable trail must start with a position-0 snapshot")
        document._tokens = list(tokens)
        document._trail = CheckpointTrail(trail)
        document._state = parser.resume(snapshot)
        return document

    # ------------------------------------------------------------ engine gl
    @property
    def engine(self) -> str:
        """Which engine drives this document: 'interpreted' or 'compiled'."""
        return "compiled" if self._compiled else "interpreted"

    @property
    def parser(self) -> Any:
        """The engine parser this document drives."""
        return self._parser

    def _shift(self, snapshot: Any, delta: int) -> Any:
        failure = snapshot.failure_position
        if failure is not None:
            failure += delta
        if self._compiled:
            return CompiledSnapshot(snapshot.state, snapshot.position + delta, failure)
        return ParserSnapshot(snapshot.language, snapshot.position + delta, failure)

    # --------------------------------------------------------------- buffer
    @property
    def tokens(self) -> Tuple[Any, ...]:
        """A copy of the current buffer contents (O(n))."""
        return tuple(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def position(self) -> int:
        """Tokens the parse has consumed (== ``len(self)`` unless failed)."""
        return self._state.position

    @property
    def failed(self) -> bool:
        """True once the parse died: no completion of the buffer exists.

        Exact on both engines — a dead language is ``∅`` at the token that
        killed it — so :meth:`failure_position` only adds the
        "unexpected end of input" case.
        """
        return self._state.failed

    @property
    def structural_failure_position(self) -> Optional[int]:
        """The token that killed the parse, or None while alive.

        A field read, and exact; :meth:`failure_position` also reports an
        input that ended early (at ``len(self)``).
        """
        return self._state.failure_position

    def checkpoints(self) -> List[int]:
        """The trail's checkpoint positions, ascending (position 0 first)."""
        return self._trail.positions()

    def trail_snapshots(self) -> Tuple[Any, ...]:
        """The trail's snapshots (for trail-aware checkpoint/restore)."""
        return self._trail.snapshots()

    def state_snapshot(self) -> Any:
        """An O(1) snapshot of the current final state."""
        return self._state.snapshot()

    # -------------------------------------------------------------- feeding
    def _feed(self, token: Any) -> bool:
        """Feed one token; False once the parse is dead.

        The trail is recorded here: a checkpoint at every ``k``-th
        position the parse reaches alive, and none once it has died.
        """
        state = self._state
        state.feed(token)
        if state.failure_position is not None:
            return False
        if state.position % self.checkpoint_every == 0:
            self._trail.record(state.snapshot())
        return True

    def _feed_all(self, tokens: Iterable[Any]) -> None:
        """Feed tokens until the parse dies, recording as :meth:`_feed` does."""
        state, every, record = self._state, self.checkpoint_every, self._trail.record
        feed = state.feed
        for token in tokens:
            feed(token)
            if state.failure_position is not None:
                return
            if state.position % every == 0:
                record(state.snapshot())

    def append(self, token: Any) -> "IncrementalDocument":
        """Append one token to the end of the buffer (no rewind needed)."""
        self._feed(token)
        self._tokens.append(token)
        return self

    def extend(self, tokens: Iterable[Any]) -> "IncrementalDocument":
        """Append every token from an iterable (a dead parse feeds no more)."""
        tokens = list(tokens)
        self._feed_all(tokens)
        self._tokens.extend(tokens)
        return self

    # --------------------------------------------------------------- edits
    def apply_edit(
        self, start: int, end: int, new_tokens: Sequence[Any]
    ) -> EditResult:
        """Replace ``buffer[start:end]`` with ``new_tokens`` and reparse cheaply.

        Insertion is ``start == end``, deletion an empty ``new_tokens``.
        Returns an :class:`EditResult` describing the real work done.  The
        parse state afterwards is exactly equivalent to a from-scratch
        parse of the new buffer (the parity contract).
        """
        new_tokens = list(new_tokens)
        length = len(self._tokens)
        if not (0 <= start <= end <= length):
            raise ValueError(
                "edit range [{}:{}) is outside the buffer (length {})".format(
                    start, end, length
                )
            )
        removed = end - start
        inserted = len(new_tokens)
        delta = inserted - removed
        self.metrics.edits_applied += 1

        if removed == 0 and inserted == 0:
            return self._edit_result(start, end, removed, inserted,
                                     rewound_to=self._state.position, refed=0,
                                     converged_at=None)

        state = self._state
        # Dead-prefix short-circuit: the parse died structurally on a token
        # strictly before the edit, so the prefix that killed it is
        # untouched and the state cannot change.
        if state.failed and start > state.failure_position:
            self._tokens[start:end] = new_tokens
            return self._edit_result(start, end, removed, inserted,
                                     rewound_to=state.position, refed=0,
                                     converged_at=None)

        # Pure append onto a live parse: no rewind, just feed.
        if removed == 0 and start == length and not state.failed:
            before = state.position
            self._feed_all(new_tokens)
            self._tokens.extend(new_tokens)
            refed = state.position - before
            self.metrics.edit_tokens_refed += refed
            return self._edit_result(start, end, removed, inserted,
                                     rewound_to=before, refed=refed,
                                     converged_at=None)

        # The rewind/replay/splice blocks below double as repro.obs trace
        # stages: when a trace is active (a served session edit under a
        # tracing observer) each block's wall time is recorded; otherwise
        # stage() is a shared no-op costing one contextvar read per edit.
        with stage("rewind"):
            old_snapshots = self._trail.snapshots()
            old_final = state.snapshot()
            base = self._trail.rewind_point(start)

            # Shadow cursor (compiled only): the old parse resumed just
            # before the edit's right edge and caught up to it on the *old*
            # tokens, so the replay below can compare interned states
            # position-for-position over the unchanged suffix.  Must be set
            # up before the buffer mutation consumes the old middle span.
            shadow = None
            if self._compiled and (
                old_final.failure_position is None or old_final.failure_position >= end
            ):
                shadow_base = self._trail.rewind_point(end)
                shadow = self._parser.resume(shadow_base)
                shadow.feed_all(self._tokens[shadow_base.position : end])
                if shadow.failed:  # pragma: no cover - deterministic replay is alive
                    shadow = None

            self._trail.truncate_beyond(base.position)
            self._tokens[start:end] = new_tokens
            self._state = state = self._parser.resume(base)

        boundary = start + inserted
        converged_at: Optional[int] = None
        with stage("replay"):
            # Replay the unchanged left span plus the new tokens; no
            # convergence is possible before the edit's right edge.
            self._feed_all(self._tokens[base.position : boundary])

            if not state.failed and shadow is not None:
                # Lock-step walk over the unchanged suffix: state is at new
                # position p, shadow at old position p - delta, both about to
                # consume the same token object.  Same interned state ⇒ every
                # later transition identical ⇒ stop and splice.
                p = boundary
                total = len(self._tokens)
                while p < total:
                    if state.state is shadow.state:
                        converged_at = p
                        break
                    token = self._tokens[p]
                    if not self._feed(token):
                        break
                    shadow.feed(token)
                    if shadow.failed:
                        shadow = None
                        break
                    p += 1
            if converged_at is None:
                self._feed_all(self._tokens[state.position:])
                refed = state.position - base.position
        if converged_at is not None:
            refed = converged_at - base.position
            with stage("splice"):
                self._splice(old_snapshots, old_final, converged_at - delta, delta)
            self.metrics.edit_splices += 1

        self.metrics.edit_tokens_refed += refed
        return self._edit_result(start, end, removed, inserted,
                                 rewound_to=base.position, refed=refed,
                                 converged_at=converged_at)

    def _splice(
        self,
        old_snapshots: Sequence[Any],
        old_final: Any,
        old_position: int,
        delta: int,
    ) -> None:
        """Adopt the old parse's suffix from ``old_position`` on, shifted."""
        last = self._trail.positions()[-1] if len(self._trail) else -1
        for snapshot in old_snapshots:
            if snapshot.position < old_position:
                continue
            shifted = self._shift(snapshot, delta)
            if shifted.position > last:
                self._trail.record(shifted)
                last = shifted.position
        self._state = self._parser.resume(self._shift(old_final, delta))

    def _edit_result(
        self,
        start: int,
        end: int,
        removed: int,
        inserted: int,
        rewound_to: int,
        refed: int,
        converged_at: Optional[int],
    ) -> EditResult:
        return EditResult(
            start=start,
            end=end,
            removed=removed,
            inserted=inserted,
            rewound_to=rewound_to,
            refed_tokens=refed,
            converged_at=converged_at,
            length=len(self._tokens),
        )

    # -------------------------------------------------------------- results
    def accepts(self) -> bool:
        """True when the current buffer is a complete parse (definitive)."""
        return self._state.accepts()

    def recognize(self) -> bool:
        """Alias for :meth:`accepts` (the batch-API verb)."""
        return self._state.accepts()

    def forest(self) -> ForestNode:
        """The parse forest of the current buffer.

        Raises :class:`~repro.core.errors.ParseError` with the *exact*
        semantic failure position when the buffer does not parse —
        identical to what a from-scratch batch parse reports.
        """
        error = self.diagnose()
        if error is not None:
            raise error
        if self._compiled:
            return self._parser.parse_forest(list(self._tokens))
        return self._parser.parse_null(self._state.language)

    def tree(self) -> Any:
        """One parse tree of the current buffer (raises exactly like batch parse)."""
        return forest_answer(self.forest(), list(self._tokens))

    def parse_trees(
        self, limit: Optional[int] = None, ranking: Optional[Any] = None
    ) -> List[Any]:
        """Up to ``limit`` trees of the current buffer.

        With ``ranking`` (a ``Ranking`` or registered name like ``"size"``)
        trees come back best-first via the shared forest-query layer —
        bounded memory even when the buffer is astronomically ambiguous.
        """
        return forest_answer(
            self.forest(), list(self._tokens), "trees", limit=limit, ranking=ranking
        )

    def sample_parses(self, rng: Any, n: int = 1) -> List[Any]:
        """``n`` uniform samples over the current buffer's parse forest.

        ``rng`` is an explicit ``random.Random`` or ``int`` seed (no global
        RNG); same-seed replays return identical samples.
        """
        return forest_answer(self.forest(), list(self._tokens), "sample", rng=rng, n=n)

    def diagnose(self) -> Optional[ParseError]:
        """The exact :class:`ParseError` for the current buffer, or None.

        Error-path API: the error the batch ``parse()`` raises on the same
        buffer, read from the state without deriving anything.  Both
        engines settle every step, so a rejected buffer's state has failed
        at the very token that killed it, or is alive and ended early.
        """
        state = self._state
        if state.accepts():
            return None
        return DerivativeParser._failure_error(list(self._tokens), state.failure_position)

    def failure_position(self) -> Optional[int]:
        """The exact failing token index, or None when the buffer parses.

        ``len(self)`` means "unexpected end of input", matching the batch
        engines and Earley.
        """
        error = self.diagnose()
        return None if error is None else error.position

    def __repr__(self) -> str:
        status = "failed@{}".format(self._state.failure_position) if self.failed else "alive"
        return "IncrementalDocument({} engine, {} tokens, {} checkpoints, {})".format(
            self.engine, len(self._tokens), len(self._trail), status
        )
