"""The compiled-automaton executor: :class:`CompiledParser`.

``CompiledParser`` exposes the same surface as
:class:`~repro.core.parse.DerivativeParser` — ``recognize``, ``parse``,
``parse_forest``, ``parse_trees``, and a streaming ``start()`` state with
``feed``/``feed_all`` — but drives recognition through the grammar's shared
:class:`~repro.compile.automaton.GrammarTable` instead of deriving per
token.  On a kind-pure table the warm hot loop runs entirely on the
table's :class:`~repro.compile.automaton.DenseCore`: int-interned kinds
and states with canonical transition rows (``rows[state_id][kind_id]``),
executed through the core's *linked* rows — one small-dict probe per
token chasing successor row dicts by reference, with no Python-level
classification call, no ``AutomatonState`` hops and no per-token
allocation.  Unexplored edges fall back to the object layer's
``step_slow`` (which promotes the resolved edge into the core), and
kind-impure tables skip the dense core entirely and run the object path:
one ``kind → successor`` dict probe per token, falling back to class
signature → successor (kept public as
:meth:`CompiledParser.recognize_object`, the dense path's differential
reference).

Parse-*forest* obligations cannot ride the automaton: its states are
derived tree-free and shared between inputs (canonically interned), and
transitions are interned per token **class**, so no state knows the trees
of the tokens actually consumed.  Any API that must produce trees therefore
falls back to on-the-fly derivation through an internal
:class:`~repro.core.parse.DerivativeParser` over the same grammar root
(sound to interleave with the table: all node-resident caches are owner- or
epoch-tagged, per PR 1's isolation machinery).  Failure diagnostics ride
the same fallback, so rejection positions agree with the interpreted parser
exactly.

**Concurrency contract.**  Recognition (``recognize``, ``start()`` states,
``feed``) is safe to run from many threads over one shared table: warm
walks are lock-free dictionary probes and cold edges are derived under the
table's lock (see :mod:`repro.compile.automaton`).  The tree-producing
APIs (``parse``/``parse_forest``/``parse_trees`` and
``CompiledState.tree``/``forest``) derive on the *same grammar graph* as
the table, so they hold the table lock for the duration of the fallback
parse — correct from any thread, but serialized; services that need
parallel tree extraction should give each worker its own thread-confined
:class:`DerivativeParser` over a private graph
(:func:`repro.core.languages.clone_graph`), which is exactly what
:class:`repro.serve.ParseService` does.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.forest import ForestNode
from ..core.languages import Language, token_kind
from ..core.parse import DerivativeParser, forest_answer
from ..obs.trace import current_trace
from .automaton import (
    DENSE_DEAD,
    DENSE_SID,
    AutomatonState,
    GrammarTable,
    compile_grammar,
)

__all__ = ["CompiledParser", "CompiledState", "CompiledSnapshot"]


class CompiledSnapshot:
    """An O(1) snapshot of a :class:`CompiledState` at one stream position.

    Automaton states are interned and grammar-lifetime, so the snapshot is
    one reference plus two integers — the compiled analogue of
    :class:`~repro.core.parse.ParserSnapshot`, and the unit
    :mod:`repro.incremental` checkpoint trails are made of.  Consumed
    tokens are deliberately *not* captured (trail owners keep the one
    authoritative token buffer); resume with
    :meth:`CompiledParser.resume`, passing ``tokens`` when the resumed
    state must support ``tree()``/``forest()``.
    """

    __slots__ = ("state", "position", "failure_position", "dense_id")

    def __init__(
        self,
        state: AutomatonState,
        position: int,
        failure_position: Optional[int],
    ) -> None:
        self.state = state
        self.position = position
        self.failure_position = failure_position
        #: The pinned state's id in the table's dense core (None on impure
        #: tables, transient states and the ``∅`` sink).  Interned states
        #: and dense ids are bijective, so trail consumers — the shadow
        #: cursor of :mod:`repro.incremental` — can compare ints instead
        #: of object identities when deciding re-convergence.
        self.dense_id = state.dense_id

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
    """Streaming execution state over a :class:`CompiledParser`.

    Mirrors :class:`~repro.core.parse.ParserState`: ``feed`` consumes one
    token, ``failed``/``failure_position`` report structural death (the
    automaton's ``∅`` sink), ``accepts()`` is definitive for the tokens
    consumed so far.  Unlike the interpreted state it (by default) also
    *retains* the consumed tokens, because ``forest()``/``tree()`` re-derive
    them through the fallback parser (token values do not survive
    class-interned transitions); memory is O(tokens consumed) rather than
    O(live grammar).  Recognition-only callers streaming unbounded input
    should pass ``keep_tokens=False`` to :meth:`CompiledParser.start` —
    memory drops to O(1) per token and ``forest()``/``tree()`` raise.
    """

    __slots__ = (
        "parser",
        "table",
        "state",
        "position",
        "failure_position",
        "tokens",
        "snapshot_every",
        "on_snapshot",
    )

    def __init__(
        self,
        parser: "CompiledParser",
        keep_tokens: bool = True,
        snapshot_every: Optional[int] = None,
        on_snapshot: Optional[Callable[["CompiledSnapshot"], None]] = None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError(
                "snapshot_every must be >= 1, got {}".format(snapshot_every)
            )
        self.parser = parser
        self.table = parser.table
        self.state: AutomatonState = parser.table.start
        #: Number of tokens consumed so far.
        self.position = 0
        #: Index of the token that killed the automaton, or None while alive.
        self.failure_position: Optional[int] = None
        #: Every consumed token, retained for the forest fallback — or None
        #: when the caller opted out of retention.
        self.tokens: Optional[List[Any]] = [] if keep_tokens else None
        #: Emit a snapshot to ``on_snapshot`` every this many tokens (the
        #: checkpoint-trail hook; None disables it); alive states only.
        self.snapshot_every = snapshot_every
        self.on_snapshot = on_snapshot

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

        Probes the table's dense core first (one linked-row dict get);
        unexplored edges, dead edges, unknown kinds and dense-less tables
        fall back to the object layer exactly like
        :meth:`CompiledParser.recognize_object`.
        """
        if self.failure_position is not None:
            return self
        if self.tokens is not None:
            self.tokens.append(tok)
        state = self.state
        successor = None
        core = self.table.dense
        sid = state.dense_id
        if core is not None and sid is not None:
            try:
                nxt = core.links[sid].get(getattr(tok, "kind", tok))
            except TypeError:  # unhashable kind guess (exotic token shape)
                nxt = None
            if nxt is not None:
                successor = core.states[nxt[DENSE_SID]]
        if successor is None:
            successor = state.by_kind.get(token_kind(tok))
            if successor is None:
                successor = self.table.step_slow(state, tok)
        self.position += 1
        if successor.dead:
            self.failure_position = self.position - 1
            self.state = successor
            return self
        self.state = successor
        if (
            self.snapshot_every is not None
            and self.on_snapshot is not None
            and self.position % self.snapshot_every == 0
        ):
            self.on_snapshot(self.snapshot())
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

    # ---------------------------------------------------------------- results
    def forest(self) -> ForestNode:
        """Parse forest of the consumed tokens (fallback derivation).

        Delegates unconditionally — on failed states too — so the raised
        :class:`ParseError` carries the fallback's exact semantic failure
        position (the automaton's ``failure_position`` is *structural* and
        can lag the token that actually killed the parse).
        """
        return self.parser.parse_forest(self._retained())

    def tree(self) -> Any:
        """One parse tree of the consumed tokens (fallback derivation)."""
        return self.parser.parse(self._retained())

    def trees(
        self, limit: Optional[int] = None, ranking: Optional[Any] = None
    ) -> List[Any]:
        """Up to ``limit`` trees of the consumed tokens, optionally ranked."""
        return self.parser.parse_trees(self._retained(), limit=limit, ranking=ranking)

    def sample(self, rng: Any, n: int = 1) -> List[Any]:
        """``n`` uniform samples over the consumed tokens' parse forest."""
        return self.parser.sample_parses(self._retained(), rng, n=n)

    def _retained(self) -> List[Any]:
        if self.tokens is None:
            raise ValueError(
                "this state was started with keep_tokens=False; forest()/"
                "tree() need the consumed tokens for the derivation fallback"
            )
        return self.tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = (
            "failed@{}".format(self.failure_position)
            if self.failure_position is not None
            else "alive"
        )
        return "CompiledState(position={}, {})".format(self.position, status)


class CompiledParser:
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
    :class:`DerivativeParser` over the same root (the on-the-fly fallback
    for parse-forest obligations), which also supplies exact failure
    positions on the error path.
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

    # ------------------------------------------------------------------ API
    @property
    def root(self) -> Language:
        """The (optimized) grammar root the automaton executes."""
        return self.table.root

    def fallback(self) -> DerivativeParser:
        """The on-the-fly derivation engine behind tree-producing APIs.

        The fallback derives on the same grammar graph the table compiles,
        so callers must hold ``self.table.lock`` while driving it (the
        tree-producing methods below do).
        """
        if self._fallback is None:
            # The table's root is already optimized; skip re-optimizing.
            self._fallback = DerivativeParser(self.table.root, optimize_grammar=False)
        return self._fallback

    def start(
        self,
        keep_tokens: bool = True,
        snapshot_every: Optional[int] = None,
        on_snapshot: Optional[Callable[[CompiledSnapshot], None]] = None,
    ) -> CompiledState:
        """Begin a streaming run; see :class:`CompiledState`.

        Pass ``keep_tokens=False`` for recognition-only streaming over
        unbounded input: the state stops retaining consumed tokens (O(1)
        memory per token) and ``forest()``/``tree()`` become unavailable.
        ``snapshot_every``/``on_snapshot`` enable the checkpoint-trail
        hook: every ``snapshot_every`` consumed tokens the (alive) state
        hands an O(1) :class:`CompiledSnapshot` to ``on_snapshot``.
        """
        return CompiledState(
            self,
            keep_tokens=keep_tokens,
            snapshot_every=snapshot_every,
            on_snapshot=on_snapshot,
        )

    def resume(
        self,
        snapshot: CompiledSnapshot,
        tokens: Optional[Sequence[Any]] = None,
        snapshot_every: Optional[int] = None,
        on_snapshot: Optional[Callable[[CompiledSnapshot], None]] = None,
    ) -> CompiledState:
        """A new :class:`CompiledState` positioned exactly at ``snapshot``.

        The snapshot must come from a state over this parser's table (state
        indices are table-scoped).  Snapshots do not capture consumed
        tokens, so the resumed state supports ``tree()``/``forest()`` only
        when the caller supplies the consumed prefix via ``tokens``.
        """
        state = CompiledState(
            self,
            keep_tokens=tokens is not None,
            snapshot_every=snapshot_every,
            on_snapshot=on_snapshot,
        )
        state.state = snapshot.state
        state.position = snapshot.position
        state.failure_position = snapshot.failure_position
        if tokens is not None:
            state.tokens = list(tokens)
        return state

    def reset(self) -> None:
        """Reset per-parse state (the grammar table deliberately survives).

        Parity hook for :meth:`DerivativeParser.reset`: the compiled
        executor keeps no per-parse caches of its own, and the transition
        table is grammar-lifetime by design, so only the fallback parser's
        per-parse memo is cleared.
        """
        if self._fallback is not None:
            with self.table.lock:
                self._fallback.reset()

    def stats(self) -> Dict[str, Any]:
        """The shared table's size/warmth statistics."""
        return self.table.stats()

    # ------------------------------------------------------------ recognition
    def recognize(self, tokens: Iterable[Any]) -> bool:
        """True when the token sequence is in the grammar's language.

        The hot path: the table's dense core
        (:class:`~repro.compile.automaton.DenseCore`) executed over its
        linked rows — one small-dict probe per warm token — entering the
        object layer only on unexplored edges and leaving it again as soon
        as the resolved successor has a dense id.  Kind-impure tables (no
        dense core) run :meth:`recognize_object` unchanged.
        """
        return self.recognize_with_stats(tokens)[0]

    def recognize_with_stats(self, tokens: Iterable[Any]) -> "Tuple[bool, int, int]":
        """Recognize and report ``(accepted, dense_hits, dense_fallbacks)``.

        The counts cover *this call only*: tokens resolved by a dense row
        vs. tokens routed through the object layer (cold edge, unknown
        kind, or a transient cursor past the state cap).  Both are zero
        when the table has no dense core.  The counts are also folded into
        the table's lifetime totals (``stats()['dense_hits']`` /
        ``['dense_fallbacks']`` and the shared
        :class:`~repro.core.metrics.Metrics`) under the table lock — one
        acquisition per run, never per token.

        Observability rides one branch per *run*, never per token: when a
        :mod:`repro.obs` trace is active in this context the whole run is
        recorded as a ``recognize`` stage span; when none is (the
        default), the cost is this single contextvar read —
        ``benchmarks/bench_obs_overhead.py`` gates it at ≤ 5% over the
        bare dense loop.
        """
        trace = current_trace()
        if trace is None:
            return self._recognize_with_stats(tokens)
        with trace.span("recognize"):
            return self._recognize_with_stats(tokens)

    def _recognize_with_stats(self, tokens: Iterable[Any]) -> "Tuple[bool, int, int]":
        """The untraced body of :meth:`recognize_with_stats`."""
        table = self.table
        core = table.dense
        if core is None:
            return self.recognize_object(tokens), 0, 0
        sid = table.start.dense_id
        if sid is None:  # start state transient (max_states=0): no dense run
            return self.recognize_object(tokens), 0, 0
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        if core.needs_repack():
            with table.lock:
                if core.needs_repack():
                    core.repack()
        try:
            accepted, hits, fallbacks = self._dense_run(core, sid, tokens)
        except TypeError:
            # A token whose fast-path kind guess is unhashable: recognition
            # is a pure function of the stream, so rerun it entirely on the
            # object layer (which classifies with the full token_kind
            # protocol and raises only genuine errors).
            return self.recognize_object(tokens), 0, 0
        table.note_dense_run(hits, fallbacks)
        return accepted, hits, fallbacks

    def _dense_run(
        self, core: Any, sid: int, tokens: Sequence[Any]
    ) -> "Tuple[bool, int, int]":
        """The dense hot loop; returns (accepted, hits, fallbacks).

        Walks the core's *linked* execution rows — one small-dict ``get``
        per token, chasing the successor's row dict directly, with no ids
        decoded on the hot path (see :class:`DenseCore` for why this beats
        indexing the int rows in CPython).  A miss re-enters the int/object
        world: the row's own id (under the reserved ``DENSE_SID`` key)
        addresses the canonical int row, which distinguishes a dead edge
        (dead edges are deliberately absent from the linked rows) from a
        genuinely unexplored one; only the latter pays ``step_slow``.  The
        loop body never counts — token totals are recovered from
        ``len(tokens)`` on completion and by draining the shared iterator
        on the (rare) early exits.
        """
        table = self.table
        links = core.links
        rows = core.rows
        states = core.states
        get_kid = core.kind_ids.get
        kind_of = token_kind
        step_slow = table.step_slow
        n = len(tokens)
        fallbacks = 0
        row = links[sid]
        stream = iter(tokens)
        for tok in stream:
            nxt = row.get(getattr(tok, "kind", tok))
            if nxt is not None:
                row = nxt
                continue
            # Miss: recover the int cursor and consult the canonical row.
            # Successor rows are re-read through ``core.links`` — a
            # concurrent repack may have retired the snapshot we entered
            # with, and states interned after the swap only exist in the
            # current list.
            sid = row[DENSE_SID]
            kid = get_kid(kind_of(tok))
            if kid is not None:
                target = rows[sid][kid]
                if target >= 0:
                    # Resolved edge the fast-path kind guess missed (e.g.
                    # tuple-shaped tokens) — still a dense hit.
                    row = core.links[target]
                    continue
                if target == DENSE_DEAD:
                    consumed = n - sum(1 for _ in stream)
                    return False, consumed - fallbacks, fallbacks
            # Cold edge or never-seen kind: resolve on the object layer
            # (step_slow promotes the edge into the dense core), then step
            # back onto the linked rows.
            fallbacks += 1
            successor = step_slow(states[sid], tok)
            if successor.dead:
                consumed = n - sum(1 for _ in stream)
                return False, consumed - fallbacks, fallbacks
            nsid = successor.dense_id
            if nsid is None:
                # Transient successor (past the table's state cap): the
                # rest of this stream cannot re-enter the dense core.
                accepted, tail = self._object_tail(successor, stream)
                consumed = n - sum(1 for _ in stream) - tail
                return accepted, consumed - fallbacks, fallbacks + tail
            row = core.links[nsid]
        return core.accepting[row[DENSE_SID]], n - fallbacks, fallbacks

    def _object_tail(
        self, state: AutomatonState, stream: Iterable[Any]
    ) -> "Tuple[bool, int]":
        """Finish a run on the object layer, consuming ``stream``."""
        step_slow = self.table.step_slow
        kind_of = token_kind
        count = 0
        for tok in stream:
            count += 1
            successor = state.by_kind.get(kind_of(tok))
            if successor is None:
                successor = step_slow(state, tok)
            if successor.dead:
                return False, count
            state = successor
        return state.accepting, count

    def recognize_object(self, tokens: Iterable[Any]) -> bool:
        """Recognition on the object layer only (the pre-dense warm path).

        One ``kind → successor`` dict probe per token with the
        class-signature (and ultimately derivation) path behind a single
        miss check.  This is the differential reference the dense core
        must agree with — the parity tests and the dense-core benchmark's
        object-path baseline both call it directly; ``recognize`` itself
        routes through the dense core whenever the table has one.
        """
        table = self.table
        state = table.start
        step_slow = table.step_slow
        kind_of = token_kind
        for tok in tokens:
            successor = state.by_kind.get(kind_of(tok))
            if successor is None:
                successor = step_slow(state, tok)
            if successor.dead:
                return False
            state = successor
        return state.accepting

    # ---------------------------------------------------------------- parsing
    def parse_forest(self, tokens: Sequence[Any]) -> ForestNode:
        """Parse and return the shared parse forest (fallback derivation).

        Forest extraction needs the *actual* token values, which compiled
        transitions do not preserve, so this delegates to the interpreted
        engine — including its exact-position failure diagnosis.
        """
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        with self.table.lock:
            return self.fallback().parse_forest(tokens)

    def parse(self, tokens: Sequence[Any]) -> Any:
        """Parse and return a single parse tree (fallback derivation)."""
        tokens = list(tokens)
        return forest_answer(self.parse_forest(tokens), tokens)

    def parse_trees(
        self,
        tokens: Sequence[Any],
        limit: Optional[int] = None,
        ranking: Optional[Any] = None,
    ) -> List[Any]:
        """Parse and return up to ``limit`` distinct trees (fallback derivation).

        ``ranking`` (a ``Ranking`` or registered name) switches to lazy
        best-first top-k extraction, same as the interpreted engine.
        """
        tokens = list(tokens)
        return forest_answer(
            self.parse_forest(tokens), tokens, "trees", limit=limit, ranking=ranking
        )

    def sample_parses(self, tokens: Sequence[Any], rng: Any, n: int = 1) -> List[Any]:
        """Draw ``n`` uniform samples over the parse forest (fallback derivation)."""
        tokens = list(tokens)
        return forest_answer(self.parse_forest(tokens), tokens, "sample", rng=rng, n=n)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "CompiledParser({!r})".format(self.table)
