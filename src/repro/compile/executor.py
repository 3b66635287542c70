"""The compiled-automaton executor: :class:`CompiledParser`.

``CompiledParser`` exposes the batch surface of
:class:`~repro.core.parse.DerivativeParser` — ``recognize``, ``parse``,
``parse_forest``, ``parse_trees`` — plus a streaming ``start()`` cursor
with ``feed``/``feed_all``, but drives recognition through the grammar's
shared :class:`~repro.compile.automaton.GrammarTable` instead of deriving
per token.  The cursor (:class:`CompiledState`) recognizes only and keeps
O(1) memory however long the stream; a compiled stream that needs trees is
an :class:`~repro.incremental.IncrementalDocument`, which owns the token
buffer and extracts them through the batch fallback below.

Every table runs one hot loop: one small-dict probe per token chasing the
states' linked edge dicts (token kind → the successor's edge dict), with
no Python-level classification call and no per-token allocation.  A miss
calls the table's ``step_slow`` — classify, consult the class table,
derive only if the edge is new — and continues from the successor's dict.
Kind-impure and transient states have no edges, so on those every token
takes ``step_slow``.

Parse-*forest* obligations cannot ride the automaton: its states are
derived tree-free and shared between inputs (canonically interned), and
transitions are interned per token **class**, so no state knows the trees
of the tokens actually consumed.  Any API that must produce trees therefore
falls back to on-the-fly derivation through an internal
:class:`~repro.core.parse.DerivativeParser` built from the table's root,
which copies it, so the fallback and the table never derive on one graph.
Failure diagnostics ride the same fallback, so rejection positions agree
with the interpreted parser exactly.

**Concurrency contract.**  Recognition (``recognize``, ``start()`` cursors,
``feed``) is safe to run from many threads over one shared table: warm
walks are lock-free dictionary probes and cold edges are derived under the
table's lock (see :mod:`repro.compile.automaton`).  The tree-producing
APIs (``parse``/``parse_forest``/``parse_trees``/``sample_parses``)
derive on the fallback's own graph under a lock the
:class:`CompiledParser` owns — correct from any thread, serialized per
parser, and never blocking another thread's cold recognition step.
Services that need parallel tree extraction give each worker its own
thread-confined :class:`DerivativeParser` built the same way, which is
exactly what :class:`repro.serve.ParseService` does.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..core.forest import ForestNode
from ..core.languages import Language, token_kind
from ..core.parse import DerivativeParser, ForestParser
from ..obs.trace import current_trace
from .automaton import STATE, AutomatonState, GrammarTable, compile_grammar

__all__ = ["CompiledParser", "CompiledState", "CompiledSnapshot"]


class CompiledSnapshot:
    """An O(1) snapshot of a :class:`CompiledState` at one stream position.

    Automaton states are interned and grammar-lifetime, so the snapshot is
    one reference plus two integers — the compiled analogue of
    :class:`~repro.core.parse.ParserSnapshot`, and the unit
    :mod:`repro.incremental` checkpoint trails are made of.  Consumed
    tokens are not captured (the trail's owner keeps the one token
    buffer); resume with :meth:`CompiledParser.resume`.
    """

    __slots__ = ("state", "position", "failure_position")

    def __init__(
        self,
        state: AutomatonState,
        position: int,
        failure_position: Optional[int],
    ) -> None:
        self.state = state
        self.position = position
        self.failure_position = failure_position

    def __repr__(self) -> str:
        status = (
            "failed@{}".format(self.failure_position)
            if self.failure_position is not None
            else "alive"
        )
        return "CompiledSnapshot(state={}, position={}, {})".format(
            self.state.index, self.position, status
        )


class CompiledState:
    """A streaming recognition cursor over a :class:`GrammarTable`.

    Mirrors the recognition half of :class:`~repro.core.parse.ParserState`:
    ``feed`` consumes one token, ``failed``/``failure_position`` report
    structural death (the automaton's ``∅`` sink), ``accepts()`` is
    definitive for the tokens consumed so far.  The cursor is one state
    reference and two integers, so memory stays O(1) however many tokens
    stream through it.  It keeps no tokens and yields no trees: trees come
    from an :class:`~repro.incremental.IncrementalDocument` (which owns the
    token buffer and drives a cursor) or from :meth:`CompiledParser.parse`
    and its siblings over a token list.
    """

    __slots__ = ("table", "state", "position", "failure_position")

    def __init__(self, table: GrammarTable) -> None:
        self.table = table
        self.state: AutomatonState = table.start
        #: Number of tokens consumed so far.
        self.position = 0
        #: Index of the token that killed the automaton, or None while alive.
        self.failure_position: Optional[int] = None

    # ------------------------------------------------------------- predicates
    @property
    def failed(self) -> bool:
        """True once the automaton has entered the ``∅`` sink."""
        return self.failure_position is not None

    def accepts(self) -> bool:
        """True when the tokens consumed so far form a complete parse."""
        return self.failure_position is None and self.state.accepting

    # -------------------------------------------------------------- snapshots
    def snapshot(self) -> CompiledSnapshot:
        """An O(1) reference snapshot of this state (see :class:`CompiledSnapshot`)."""
        return CompiledSnapshot(self.state, self.position, self.failure_position)

    # ---------------------------------------------------------------- driving
    def feed(self, tok: Any) -> "CompiledState":
        """Consume one token (a no-op once failed, keeping the position).

        Probes the state's edge dict, and on a miss resolves the token with
        the table's ``step_slow`` — the same two steps as the batch loop.
        """
        if self.failure_position is not None:
            return self
        nxt = self.state.edges.get(token_kind(tok))
        successor = self.table.step_slow(self.state, tok) if nxt is None else nxt[STATE]
        self.position += 1
        if successor.dead:
            self.failure_position = self.position - 1
        self.state = successor
        return self

    def feed_all(self, tokens: Iterable[Any]) -> "CompiledState":
        """Consume every token (stops pulling the iterable on failure)."""
        if self.failure_position is not None:
            return self
        for tok in tokens:
            self.feed(tok)
            if self.failure_position is not None:
                break
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = (
            "failed@{}".format(self.failure_position)
            if self.failure_position is not None
            else "alive"
        )
        return "CompiledState(position={}, {})".format(self.position, status)


class CompiledParser(ForestParser):
    """A parser that executes the grammar's compiled derivative automaton.

    Parameters
    ----------
    grammar:
        A :class:`~repro.core.languages.Language` root or an object with a
        ``language()``/``to_language()`` conversion.  Parsers constructed
        over the same root share one :class:`GrammarTable` — the transition
        cache persists across parses *and* across parser instances.
    table:
        An explicit pre-built (e.g. deserialized) table to execute instead
        of the registry's shared one.
    max_states:
        Forwarded to :func:`compile_grammar` when the table is built here.

    The recognition path never extracts trees and is value-insensitive;
    ``parse``/``parse_forest``/``parse_trees`` delegate to an internal
    :class:`DerivativeParser` over a copy of the table's root (the
    on-the-fly fallback for parse-forest obligations), which also supplies
    exact failure positions on the error path.
    """

    def __init__(
        self,
        grammar: Any = None,
        table: Optional[GrammarTable] = None,
        max_states: Optional[int] = None,
    ) -> None:
        if table is None:
            if grammar is None:
                raise TypeError("CompiledParser needs a grammar or a table")
            table = compile_grammar(grammar, max_states=max_states)
        self.table = table
        self._fallback: Optional[DerivativeParser] = None
        self._fallback_lock = threading.Lock()

    # ------------------------------------------------------------------ API
    @property
    def root(self) -> Language:
        """The (optimized) grammar root the automaton executes."""
        return self.table.root

    def fallback(self) -> DerivativeParser:
        """The on-the-fly derivation engine behind tree-producing APIs.

        It derives on its own copy of the table's root, so callers hold
        ``self._fallback_lock`` while driving it (the tree-producing
        methods below do), never the table's lock.  Copying needs no lock
        either: construction leaves every live node of the table's root
        settled and cut, and derivation writes only memo fields on it,
        which :func:`~repro.core.languages.clone_graph` does not read.
        """
        if self._fallback is None:
            # The table's root is already optimized; skip re-optimizing.
            self._fallback = DerivativeParser(self.table.root, optimize_grammar=False)
        return self._fallback

    def start(self) -> CompiledState:
        """Begin a streaming recognition run; see :class:`CompiledState`.

        The cursor keeps no history: a caller that wants checkpoints takes
        :meth:`CompiledState.snapshot` where it needs one (an
        :class:`~repro.incremental.IncrementalDocument` records its trail
        that way).
        """
        return CompiledState(self.table)

    def resume(self, snapshot: CompiledSnapshot) -> CompiledState:
        """A new :class:`CompiledState` positioned exactly at ``snapshot``.

        The snapshot must come from a state over this parser's table (state
        indices are table-scoped).  Like :meth:`start`, it records nothing.
        """
        state = CompiledState(self.table)
        state.state = snapshot.state
        state.position = snapshot.position
        state.failure_position = snapshot.failure_position
        return state

    def reset(self) -> None:
        """Reset per-parse state (the grammar table deliberately survives).

        Parity hook for :meth:`DerivativeParser.reset`: the compiled
        executor keeps no per-parse caches of its own, and the transition
        table is grammar-lifetime by design, so only the fallback parser's
        per-parse memo is cleared.
        """
        if self._fallback is not None:
            with self._fallback_lock:
                self._fallback.reset()

    def stats(self) -> Dict[str, Any]:
        """The shared table's size/warmth statistics."""
        return self.table.stats()

    # ------------------------------------------------------------ recognition
    def recognize(self, tokens: Iterable[Any]) -> bool:
        """True when the token sequence is in the grammar's language.

        The hot path: one small-dict probe per warm token over the states'
        linked edge dicts, entering ``step_slow`` only on a miss (see
        :meth:`_walk`).
        """
        return self.recognize_with_stats(tokens)[0]

    def recognize_with_stats(self, tokens: Iterable[Any]) -> "Tuple[bool, int, int]":
        """Recognize and report ``(accepted, dense_hits, dense_fallbacks)``.

        The counts cover *this call only*: tokens resolved by an edge dict
        vs. tokens resolved by ``step_slow`` (cold edge, unknown kind, an
        impure table, or a transient cursor past the state cap).  A run
        that stops at the ``∅`` sink counts the tokens up to and including
        the one that killed it.  The counts are also folded into the
        table's lifetime totals (``stats()['dense_hits']`` /
        ``['dense_fallbacks']`` and the shared
        :class:`~repro.core.metrics.Metrics`) under the table lock — one
        acquisition per run, never per token.

        Observability rides one branch per *run*, never per token: when a
        :mod:`repro.obs` trace is active in this context the whole run is
        recorded as a ``recognize`` stage span; when none is (the
        default), the cost is this single contextvar read —
        ``benchmarks/bench_obs_overhead.py`` gates it at ≤ 5% over the
        bare hot loop.
        """
        trace = current_trace()
        if trace is None:
            return self._recognize_with_stats(tokens)
        with trace.span("recognize"):
            return self._recognize_with_stats(tokens)

    def _recognize_with_stats(self, tokens: Iterable[Any]) -> "Tuple[bool, int, int]":
        """The untraced body of :meth:`recognize_with_stats`."""
        table = self.table
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        if table.needs_repack():
            with table.lock:
                if table.needs_repack():
                    table.repack()
        try:
            accepted, hits, fallbacks = self._walk(tokens)
        except TypeError:
            # A token whose fast kind guess is unhashable (a tuple token
            # carrying a list): recognition is a pure function of the
            # stream, so rerun it on the streaming path, which reads every
            # kind with the full token_kind protocol and raises only
            # genuine errors.  That path is not metered.
            return self.start().feed_all(tokens).accepts(), 0, 0
        table.note_dense_run(hits, fallbacks)
        return accepted, hits, fallbacks

    def _walk(self, tokens: Sequence[Any]) -> "Tuple[bool, int, int]":
        """The hot loop; returns (accepted, hits, fallbacks).

        One ``dict.get`` per token, chasing the successor's edge dict
        directly.  A miss reads the dict's state (under the reserved
        :data:`~repro.compile.automaton.STATE` key), retries with the full
        ``token_kind`` protocol (tuple tokens miss the fast guess), stops
        if the previous token took a dead edge into the ``∅`` sink's dict,
        and otherwise resolves the token with ``step_slow`` and continues
        from the successor's dict.  The loop body never counts: token
        totals are recovered from ``len(tokens)`` on completion and by
        draining the shared iterator on the early exit.
        """
        step_slow = self.table.step_slow
        kind_of = token_kind
        n = len(tokens)
        fallbacks = 0
        row = self.table.start.edges
        stream = iter(tokens)
        for tok in stream:
            nxt = row.get(getattr(tok, "kind", tok))
            if nxt is not None:
                row = nxt
                continue
            nxt = row.get(kind_of(tok))
            if nxt is not None:
                row = nxt
                continue
            state = row[STATE]
            if state.dead:
                # ``tok`` is the first token past the one that killed the run.
                consumed = n - sum(1 for _ in stream) - 1
                return False, consumed - fallbacks, fallbacks
            fallbacks += 1
            row = step_slow(state, tok).edges
        return row[STATE].accepting, n - fallbacks, fallbacks

    # ---------------------------------------------------------------- parsing
    def _forest(self, tokens: Sequence[Any]) -> ForestNode:
        """The parse forest, by fallback derivation.

        Forest extraction needs the *actual* token values, which compiled
        transitions do not preserve, so this delegates to the interpreted
        engine — including its exact-position failure diagnosis.
        """
        with self._fallback_lock:
            return self.fallback().parse_forest(tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "CompiledParser({!r})".format(self.table)
