"""The lazy derivative automaton and its grammar-owned transition table.

A :class:`GrammarTable` compiles a grammar *incrementally*: its states are
recognition-only derivative languages interned by a canonical key of their
live graph, and its transitions are ``state × token-class → state`` edges
discovered the first time a parse crosses them.  Four properties make this
a compiler rather than a cache:

* **States are interned derivative closures.**  The table owns a
  *persistent* derive memo (:class:`repro.core.memo.PersistentDictMemo`), so
  deriving a given language node by a given token always returns the
  identical result node, and re-walking previously seen input costs one
  dictionary lookup per token instead of one graph traversal.

* **New input re-enters existing states.**  Node identity alone never
  shares a state between two inputs: derivatives of cyclic regions are
  fresh placeholders.  So a newly derived state that misses the identity
  map is keyed by the canonical structure of its derived region
  (:meth:`GrammarTable._state_key`); when another state has the same key,
  the two graphs are isomorphic and denote one language, and the edge
  points at the existing state.  This is the grammar analogue of the
  similarity rules that keep Brzozowski automata finite (Owens, Reppy &
  Turon, JFP 2009).  The key walk is bounded by the derivation work of the
  step, so grammars whose states genuinely grow (highly ambiguous ones)
  fall back to identity interning at a constant-factor cost.

* **Transitions are per token-class, not per token.**  Each state partitions
  the token alphabet by match signature (:class:`.classes.TokenClassifier`);
  one derivative covers every token in a class.  Kind-pure states
  additionally flatten ``kind → successor`` for the executor's hot loop.

* **The grammar owns the table.**  The default-configuration table is
  anchored on the grammar root's ``compiled_table`` field — the
  node-resident idiom of the derive memos — so every
  :class:`~repro.compile.CompiledParser` over the same root shares one
  table, across parses and across parser instances, for as long as the
  grammar lives; dropping the grammar frees the whole group as one cycle
  (see :func:`compile_grammar`).  This extends the epoch/ownership
  machinery of :mod:`repro.core.memo`: the table's entries live on the
  shared nodes under the table's own owner token and can never be read,
  evicted or cleared by other parsers sharing the graph.

The automaton is a *recognition* device.  Its deriver builds through a
:class:`~repro.core.compaction.TreeFreeCompactor`, so states carry no parse
trees at all (the root itself is optimized with the tree-keeping
compactor, because tree-producing parsers derive from it).  Forest
extraction therefore always falls back to on-the-fly derivation (see
:class:`~repro.compile.CompiledParser`).

States materialized from a serialized table (:mod:`.serialize`) start with
no language attached; each carries a *witness* (parent state + representative
token) so the language can be rebuilt on demand by deriving along the
witness chain.  A materialized state registers its canonical key then.

**Concurrency contract.**  A table is shared *read-mostly*: the executor's
hot loops probe ``by_kind``/``by_signature`` without synchronization, and
every mutation of shared *derivation* state — deriving a new transition,
interning a state, materializing a witness chain, pruning, and the metrics
counters those paths bump — happens under the table's
:attr:`GrammarTable.lock`.  The one unlocked write is the idempotent
``by_kind`` flattening on a warm signature hit in :meth:`GrammarTable.step_slow`:
it re-publishes an already-interned successor under a finer key, racing
writers store the identical value, and no derivation state is touched.
The lock-free reads (and that one write) are sound on CPython because
(a) dictionary get/set are individually atomic under the GIL and (b) a
successor state is fully initialized (``accepting``/``dead`` assigned,
transitions empty) *before* the assignment that publishes it into a
transition dict, so a racing reader sees either a miss or a complete
state, never a partial one.  The
grammar *graph* under the table is mutated by locked paths too (derive
memos, nullability caches, in-place pruning), so any other engine that
derives on the same graph — e.g. the tree-extraction fallback of
:class:`~repro.compile.CompiledParser` — must hold the same lock; plain
:class:`~repro.core.parse.DerivativeParser` instances remain
**thread-confined** together with their (private) graphs.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from ..core.compaction import (
    CompactionConfig,
    Compactor,
    TreeFreeCompactor,
    optimize_initial_grammar,
)
from ..core.derivative import Deriver
from ..core.errors import GrammarError, ReproError
from ..core.languages import (
    EMPTY,
    Alt,
    Cat,
    Delta,
    Empty,
    Epsilon,
    Language,
    Reduce,
    Ref,
    graph_size,
    reachable_nodes,
    structural_fingerprint,
    token_kind,
)
from ..core.memo import PersistentDictMemo
from ..core.metrics import Metrics
from ..core.nullability import NullabilityAnalyzer
from ..core.parse import validate_grammar
from ..core.productivity import ProductivityAnalyzer
from ..core.prune import AdaptivePruneSchedule, prune_empty
from .classes import TokenClassifier

__all__ = [
    "AutomatonState",
    "DenseCore",
    "DENSE_UNEXPLORED",
    "DENSE_DEAD",
    "DENSE_SID",
    "GrammarTable",
    "compile_grammar",
    "discard_table",
    "as_root",
]

#: Dense-row sentinel: this ``state × kind`` edge has never been resolved —
#: the executor must fall back to :meth:`GrammarTable.step_slow`.
DENSE_UNEXPLORED = -2
#: Dense-row sentinel: this edge provably leads to the ``∅`` sink.
DENSE_DEAD = -1

#: Reserved key in every linked row dict, mapping to the row's own dense
#: state id.  A fresh ``object()`` can never compare equal to a token kind,
#: so the reservation is invisible to ``row.get(kind)`` probes.
DENSE_SID = object()


#: The canonical key walk of a new state may visit ``_KEY_FACTOR`` derived
#: nodes per uncached derive of the step that built it, plus
#: ``_KEY_SLACK``.  Fixed constants: without the bound, keying the states
#: of highly ambiguous grammars (whose derived regions grow with the
#: input) costs many times the derivation itself.
_KEY_FACTOR = 4
_KEY_SLACK = 32


def _key_budget(uncached: int) -> int:
    """The key-walk bound of a state built by ``uncached`` derive steps."""
    return _KEY_FACTOR * uncached + _KEY_SLACK


class DenseCore:
    """The automaton flattened to contiguous integers for the warm hot loop.

    Token kinds and interned states are assigned dense ids in discovery
    order; transitions live in ``rows[state_id][kind_id]`` — plain Python
    lists of ints.  Entries are ints ``>= 0`` (the successor's dense id) or
    one of two sentinels: :data:`DENSE_DEAD` (the ``∅`` sink) and
    :data:`DENSE_UNEXPLORED` (never resolved — the executor falls back to
    the object layer's :meth:`GrammarTable.step_slow`, which promotes the
    freshly resolved edge into the row on its way out).  The int rows are
    the *canonical* dense layout: they are what serializes, what
    ``row_fill`` inspects, and what defines dense-id semantics.

    Execution, however, does not index the int rows.  CPython resolves a
    small-dict ``get`` faster than a pair of ``list`` subscripts plus the
    int decoding around them, so the core additionally maintains ``links``
    — one dict per state mapping token kind directly to the *successor's
    link dict*.  The warm hot loop is then a pointer chase::

        row = links[start_id]
        for tok in stream:
            row = row.get(tok.kind)      # next state's dict, or None

    with no ids decoded per token at all.  Each link dict carries its own
    state id under the reserved :data:`DENSE_SID` key so the executor can
    re-enter the int/object world on a miss (cold edge, unknown kind) and
    read off acceptance at end of input.  Dead edges are recorded only in
    the int rows — a dead probe misses ``links`` and the fallback decodes
    :data:`DENSE_DEAD` from the canonical row, keeping the per-token path
    to a single ``None`` test.

    The core is *built incrementally* alongside the object layer: every
    non-transient interned state gets a row at interning time, and every
    resolved ``kind → successor`` edge is mirrored into the row the moment
    the object layer flattens it (cold derivation and warm
    signature-hit promotion both land here).  The object layer remains the
    source of truth — trees, forests, failure diagnosis and witness
    materialization never read the dense core.

    A core only exists on kind-*pure* tables (every terminal matches by
    token kind alone); predicate terminals classify by value, which no
    kind-indexed row can express, so impure tables keep ``dense = None``
    and run the object path everywhere.

    **Concurrency.**  Structure mutations (new state rows, kind interning
    with its row extension) happen under the owning table's lock, with
    publication ordered so lock-free readers are always safe: a state's
    row is appended to ``rows`` before any transition entry can name its
    id, and every row is extended to cover a new kind before the kind is
    published in ``kind_ids``.  Transition-entry writes are idempotent
    single-slot int stores (racing writers store the identical value), so
    the warm promotion path may write them without the lock — the same
    argument that covers ``by_kind`` flattening.
    """

    __slots__ = (
        "kind_ids",
        "kinds",
        "rows",
        "links",
        "packed_states",
        "states",
        "accepting",
        "hits",
        "fallbacks",
    )

    def __init__(self) -> None:
        #: Canonical token kind → dense kind id.
        self.kind_ids: Dict[Any, int] = {}
        #: Dense kind id → canonical token kind (the serialized kind table).
        self.kinds: List[Any] = []
        #: Dense state id → transition row (one int per interned kind).
        self.rows: List[List[int]] = []
        #: Dense state id → linked execution row: token kind → successor's
        #: link dict (live edges only; :data:`DENSE_SID` maps to the row's
        #: own state id).  Derived from ``rows``, maintained in lock-step
        #: and periodically rebuilt compactly by :meth:`repack`.
        self.links: List[Dict[Any, Any]] = []
        #: How many link dicts the last :meth:`repack` laid out compactly
        #: (states interned since then live wherever the allocator put
        #: them, until the next repack).
        self.packed_states = 0
        #: Dense state id → the interned :class:`AutomatonState` behind it.
        self.states: List["AutomatonState"] = []
        #: Dense state id → nullability of the state's language.
        self.accepting: List[bool] = []
        #: Tokens resolved by a dense row since the table was built.
        self.hits = 0
        #: Tokens that fell back to the object layer (cold edge, unknown
        #: kind, or a transient cursor past the state cap).
        self.fallbacks = 0

    # ------------------------------------------------------------- structure
    def add_state(self, state: "AutomatonState") -> int:
        """Assign ``state`` a dense id and an unexplored row (table-locked)."""
        dense_id = len(self.rows)
        self.rows.append([DENSE_UNEXPLORED] * len(self.kinds))
        self.links.append({DENSE_SID: dense_id})
        self.states.append(state)
        self.accepting.append(state.accepting)
        state.dense_id = dense_id
        return dense_id

    def intern_kind(self, kind: Any) -> int:
        """Intern ``kind``, growing every row first (table-locked).

        Rows are extended *before* the kind is published in ``kind_ids``,
        so a lock-free reader that obtained the new kind id always finds
        every row long enough to index.
        """
        kid = self.kind_ids.get(kind)
        if kid is not None:
            return kid
        kid = len(self.kinds)
        for row in self.rows:
            row.append(DENSE_UNEXPLORED)
        self.kinds.append(kind)
        self.kind_ids[kind] = kid
        return kid

    # ------------------------------------------------------------ promotion
    def record_edge(
        self,
        lock: "threading.RLock",
        state: "AutomatonState",
        kind: Any,
        successor: "AutomatonState",
    ) -> None:
        """Mirror a resolved ``state × kind → successor`` edge into the rows.

        Safe to call with or without the table lock held: interning a
        never-seen kind takes ``lock`` (structure mutation); the row store
        itself is an idempotent int write.  Edges involving transient
        states (no dense id) are skipped — exactly the states the object
        layer also refuses to cache.
        """
        sid = state.dense_id
        if sid is None:
            return
        if successor.dead:
            target = DENSE_DEAD
        else:
            target = successor.dense_id
            if target is None:
                return
        kid = self.kind_ids.get(kind)
        if kid is None:
            with lock:
                kid = self.intern_kind(kind)
        self.rows[sid][kid] = target
        if target >= 0:
            # Mirror live edges into the linked execution rows.  Both ends
            # come from one snapshot of ``links`` so a concurrent repack
            # never splices an old dict into a new chain; if the snapshot
            # is the pre-repack list the edge lands in retired dicts and
            # the packed chain recovers it from the canonical row on the
            # fallback path.  The successor's link dict was created (under
            # the lock) when the state was interned, so the reference is
            # always resolvable; racing writers store the identical dict,
            # so this is the same idempotent unlocked write as the row
            # store above.  Dead edges stay out of ``links`` by design —
            # see the class docstring.
            links = self.links
            links[sid][kind] = links[target]

    # -------------------------------------------------------------- repacking
    def needs_repack(self) -> bool:
        """True when enough states were interned since the last repack.

        Safe to call lock-free (two monotone int reads; worst case a
        harmless extra or missed check).  The ``dirty * 8 >= packed``
        threshold keeps the O(states + edges) repack amortized against at
        least 12.5% automaton growth — and fires on the *first* warm run
        after any cold compilation (``packed_states == 0``), which is the
        case that matters most.
        """
        dirty = len(self.rows) - self.packed_states
        return dirty > 0 and dirty * 8 >= self.packed_states

    def repack(self) -> None:
        """Rebuild the linked execution rows compactly (table-locked).

        Link dicts created during cold compilation are interleaved with
        the derivation's memo churn and end up scattered across the heap;
        chasing them costs a cache/TLB miss per token, which erases the
        representation's advantage.  Rebuilding every dict in one tight
        allocation burst from the canonical int rows restores locality —
        on the PL/0 workload this is the difference between ~80ns and
        ~400ns per warm token.

        The swap publishes a fully-built list in one reference store:
        lock-free walkers holding the retired list keep walking internally
        consistent dicts (every retired dict still resolves through its
        own :data:`DENSE_SID`), and edges racing into retired dicts are
        never lost — the canonical rows are the source of truth and the
        executor's miss path re-reads them.
        """
        kinds = self.kinds
        fresh = [{DENSE_SID: sid} for sid in range(len(self.rows))]
        for sid, row in enumerate(self.rows):
            links = fresh[sid]
            for kid, target in enumerate(row):
                if target >= 0:
                    links[kinds[kid]] = fresh[target]
        self.links = fresh
        self.packed_states = len(fresh)

    # ------------------------------------------------------------ inspection
    def row_fill(self) -> float:
        """Fraction of row slots holding a resolved edge (0.0 when empty)."""
        total = len(self.rows) * len(self.kinds)
        if not total:
            return 0.0
        explored = sum(
            1 for row in self.rows for entry in row if entry != DENSE_UNEXPLORED
        )
        return explored / total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "DenseCore(states={}, kinds={}, fill={:.2f})".format(
            len(self.rows), len(self.kinds), self.row_fill()
        )


def as_root(grammar: Any) -> Language:
    """Resolve ``grammar`` to a :class:`Language` root.

    :class:`~repro.cfg.grammar.Grammar` objects resolve through their cached
    :meth:`~repro.cfg.grammar.Grammar.language` conversion so that repeated
    compilations of one grammar object land on one shared graph — the
    precondition for sharing a transition table.
    """
    if isinstance(grammar, Language):
        return grammar
    language = getattr(grammar, "language", None)
    if callable(language):
        return language()
    to_language = getattr(grammar, "to_language", None)
    if callable(to_language):
        return to_language()
    raise GrammarError(
        "expected a Language node or an object with language()/to_language(); "
        "got {!r}".format(type(grammar))
    )


class AutomatonState:
    """One interned state of the lazy derivative automaton.

    ``language`` is the state's derivative closure (``None`` until
    materialized, for states loaded from a serialized table), ``accepting``
    its nullability, and ``dead`` marks the unique ``∅`` sink.  Transitions
    live in two tiers: ``by_signature`` is the authoritative token-class
    table, and ``by_kind`` is the flattened ``kind → successor`` fast path,
    populated only when the table's shared classifier is kind-pure (the
    classifier — and with it purity — is a property of the grammar's
    terminal alphabet, so it lives on the :class:`GrammarTable`, not here).

    ``parent``/``via`` record how the state was first reached — the witness
    used to re-derive the language after deserialization.  ``transient``
    states were built past the table's ``max_states`` cap and are never
    cached in any transition table.
    """

    __slots__ = (
        "index",
        "language",
        "accepting",
        "dead",
        "transient",
        "by_kind",
        "by_signature",
        "parent",
        "via",
        "dense_id",
    )

    def __init__(
        self,
        index: int,
        language: Optional[Language],
        accepting: bool,
        dead: bool = False,
        parent: Optional["AutomatonState"] = None,
        via: Any = None,
    ) -> None:
        self.index = index
        self.language = language
        self.accepting = accepting
        self.dead = dead
        self.transient = False
        self.by_kind: Dict[Any, "AutomatonState"] = {}
        self.by_signature: Dict[Any, "AutomatonState"] = {}
        self.parent = parent
        self.via = via
        #: This state's id in the table's :class:`DenseCore` (row index), or
        #: None when the state is transient, the ``∅`` sink, or the table is
        #: kind-impure (no dense core at all).
        self.dense_id: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flags = []
        if self.dense_id is not None:
            flags.append("dense#{}".format(self.dense_id))
        if self.dead:
            flags.append("dead")
        if self.accepting:
            flags.append("accepting")
        if self.language is None:
            flags.append("unmaterialized")
        return "AutomatonState(#{}{})".format(
            self.index, " " + ",".join(flags) if flags else ""
        )


class GrammarTable:
    """The grammar-owned compiled automaton: interned states + transitions.

    Parameters
    ----------
    grammar:
        A :class:`Language` root or an object convertible via
        ``language()``/``to_language()``.
    optimize:
        Run the initial-grammar compaction of Section 4.3.1 before compiling
        (default True, matching :class:`~repro.core.parse.DerivativeParser`).
    max_states:
        Optional cap on interned states.  Derivation past the cap still
        works (and is still memoized by the persistent derive memo) but the
        resulting states are *transient*: they are not interned and no
        transition entry points at them, bounding the table's memory on
        adversarial inputs whose state space never recurs.
    prune:
        Adaptively prune provably-empty branches from freshly derived
        states before interning them (default True, mirroring
        :class:`~repro.core.parse.DerivativeParser`).  Without it, "zombie"
        cores accumulate in the derived graphs and cold compilation
        degrades to quadratic.  :func:`~repro.core.prune.prune_empty`
        rewrites child pointers in place and is semantics-preserving, so
        already-interned states sharing the pruned nodes stay valid.
    metrics:
        Optional shared :class:`~repro.core.metrics.Metrics`.
    """

    def __init__(
        self,
        grammar: Any,
        optimize: bool = True,
        max_states: Optional[int] = None,
        prune: bool = True,
        metrics: Optional[Metrics] = None,
    ) -> None:
        root = as_root(grammar)
        validate_grammar(root)
        #: Guards every mutation of the table and of the grammar graph under
        #: it (transition derivation, state interning, witness
        #: materialization, pruning, metrics).  Warm walks read the
        #: transition dicts without taking it; see the module docstring for
        #: why that is sound.  Reentrant so tree-extraction fallbacks that
        #: hold it can still step the automaton.
        self.lock = threading.RLock()
        self.metrics = metrics if metrics is not None else Metrics()
        self.compaction_config = CompactionConfig.full()
        #: The deriver's compactor keeps no trees: states are recognition
        #: devices, and trees come from parsers over :attr:`root`, which is
        #: therefore optimized with the tree-keeping compactor below.
        self.compactor = TreeFreeCompactor(self.compaction_config, self.metrics)
        #: The transition cache's backbone: a grammar-lifetime derive memo.
        #: Its owner-keyed entries on the shared nodes are what make state
        #: interning by node identity sound (same node × same token → the
        #: identical result node, for the lifetime of this table).
        self.memo = PersistentDictMemo(self.metrics)
        self.nullability = NullabilityAnalyzer(self.metrics)
        #: The shared emptiness analysis (the productivity declaration on the
        #: unified fixed-point kernel).  Routing dead successors through it —
        #: rather than through a structural ∅ check — lets the automaton send
        #: semantically dead derivatives to the ∅ sink even when compaction
        #: has not structurally collapsed them yet.  Its final values live on
        #: the nodes (``prod_state``), sound for the table's lifetime: after
        #: construction a node's children change only via the
        #: semantics-preserving prune pass.
        self.productivity = ProductivityAnalyzer(self.nullability, self.metrics)
        self.deriver = Deriver(
            memo=self.memo,
            compactor=self.compactor,
            nullability=self.nullability,
            metrics=self.metrics,
        )
        if optimize:
            root = optimize_initial_grammar(
                root, Compactor(self.compaction_config, self.metrics)
            )
        self.optimized = optimize
        self.root = root
        #: ``id → node`` for every node reachable from the root before any
        #: derivation.  The canonical state key stops at these and names
        #: them by identity: derivation never changes their language (it
        #: builds no Token and fills only nodes of its own; pruning
        #: preserves languages).  The values pin the ids for the table's
        #: lifetime.
        self._pristine = {id(node): node for node in reachable_nodes(root)}
        # Snapshot the fingerprint *now*, before any derivation: adaptive
        # pruning rewrites child pointers of the shared graph in place, so a
        # fingerprint taken lazily at save time would never match the one a
        # fresh process computes over the un-pruned grammar at load time.
        self._fingerprint = structural_fingerprint(root)
        #: One classifier, computed from the grammar root, shared by every
        #: state.  Sound because derivation never creates new Token leaves —
        #: every terminal reachable from any derivative is one of the root's
        #: terminals, and tokens with equal signatures over a superset of a
        #: state's terminals take identical transitions.  The partition per
        #: state may be finer than strictly necessary (a class distinction a
        #: given state cannot observe), which costs a few extra interned
        #: edges but avoids an O(graph) terminal scan per new state.
        self.classifier = TokenClassifier(root)
        #: Kind-purity of the whole alphabet: when True, every state may
        #: flatten ``kind → successor``; when False, every token is
        #: classified by value (``by_kind`` stays empty everywhere).
        self.pure = self.classifier.pure
        self.max_states = max_states
        #: The dense int-indexed execution core (kind-pure grammars only).
        #: Built incrementally as states/edges are interned; the executor's
        #: hot loop runs entirely on it and falls back to :meth:`step_slow`
        #: on :data:`DENSE_UNEXPLORED` entries.  None when the alphabet has
        #: predicate terminals (value-dependent classification).
        self.dense: Optional[DenseCore] = DenseCore() if self.pure else None
        self._states: Dict[Language, AutomatonState] = {}
        #: Canonical state key (:meth:`_state_key`) → the state it names.
        self._by_key: Dict[tuple, AutomatonState] = {}
        self._by_index: List[AutomatonState] = []
        #: Number of transitions resolved by actually deriving (cache misses).
        self.transitions_derived = 0
        #: New derived states that re-entered an existing state by key.
        self.states_shared = 0
        #: New states whose key walk passed its bound (identity-interned).
        self.keys_skipped = 0
        #: Derived nodes visited by key walks, abandoned ones included.
        self.key_nodes_walked = 0
        self.dead = AutomatonState(index=-1, language=EMPTY, accepting=False, dead=True)
        # Adaptive empty-branch pruning, on the exact schedule the
        # interpreted parser uses (shared implementation).
        self.prune_enabled = prune
        self.prune_passes = 0
        self._prune_schedule = AdaptivePruneSchedule(
            graph_size(root), self.metrics.derive_uncached
        )
        self.start = self._intern(root, parent=None, via=None, budget=_KEY_SLACK)

    # ------------------------------------------------------------- interning
    def _intern(
        self,
        language: Language,
        parent: Optional[AutomatonState],
        via: Any,
        budget: int,
    ) -> AutomatonState:
        """The state for ``language``: by identity, else by canonical key.

        ``budget`` bounds the key walk (see :meth:`_state_key`).  A key hit
        also records ``language`` in the identity map, so a later edge that
        derives the same node skips the walk.
        """
        state = self._states.get(language)
        if state is not None:
            return state
        key = self._state_key(language, budget)
        if key is not None:
            state = self._by_key.get(key)
            if state is not None:
                self._states[language] = state
                self.states_shared += 1
                self.metrics.states_shared += 1
                return state
        state = AutomatonState(
            index=len(self._by_index),
            language=language,
            accepting=self.nullability.nullable(language),
            parent=parent,
            via=via,
        )
        if self.max_states is not None and len(self._by_index) >= self.max_states:
            state.transient = True
            return state
        self._states[language] = state
        if key is not None:
            self._by_key[key] = state
        self._by_index.append(state)
        if self.dense is not None:
            self.dense.add_state(state)
        return state

    def _state_key(self, language: Language, budget: int) -> Optional[tuple]:
        """A canonical key of ``language``'s live graph, or None past ``budget``.

        Two states with equal keys have isomorphic graphs, hence one
        language, so the automaton may send both edges to one state — the
        grammar analogue of the similarity rules that keep Brzozowski's
        regular-expression automata finite (Owens, Reppy & Turon, JFP
        2009).  The key is exact, not a digest; an isomorphism it misses
        costs one extra state, never a wrong verdict.

        The walk covers *derived* nodes only; pristine nodes (reachable
        from the root before any derivation) are named by identity.  It
        is abandoned rather than visit more than ``budget`` derived nodes,
        which keeps keying within a constant factor of the derivation
        that built the state.  One productivity solve then decides the
        walked region, and the key lists the nodes in discovery order:

        * a dead node is ``∅``, and a ``∪`` with a dead side is its other
          side;
        * ``↪`` and ``Ref`` are transparent (the table's states carry no
          trees, so a reduction changes nothing);
        * ``∪``/``◦`` are ordered pairs and ``δ`` a single child, by index;
        * a derived ``ε`` is the unit ``ε``.
        """
        pristine = self._pristine
        seen: set = set()
        undecided: List[Language] = []
        stack = [language]
        while stack:
            node = stack.pop()
            if id(node) in pristine or id(node) in seen:
                continue
            if len(seen) == budget:
                self.key_nodes_walked += budget
                self.keys_skipped += 1
                self.metrics.keys_skipped += 1
                return None
            seen.add(id(node))
            if node.prod_state is None:
                undecided.append(node)
            if isinstance(node, (Alt, Cat)):
                stack.append(node.right)
                stack.append(node.left)
            elif isinstance(node, (Reduce, Delta)):
                stack.append(node.lang)
            elif isinstance(node, Ref):
                stack.append(node.target)
        self.key_nodes_walked += len(seen)
        if undecided:
            self.productivity.settle(undecided)

        def canonical(node: Language) -> Language:
            # Every skip lands on a node of equal language; a loop of skips
            # would be a language equal only to itself, which is dead.
            while node.prod_state is not False and id(node) not in pristine:
                if isinstance(node, Reduce):
                    node = node.lang
                elif isinstance(node, Ref):
                    node = node.target
                elif isinstance(node, Alt) and node.left.prod_state is False:
                    node = node.right
                elif isinstance(node, Alt) and node.right.prod_state is False:
                    node = node.left
                else:
                    return node
            return EMPTY if node.prod_state is False else node

        entries: List[Any] = []
        numbers: Dict[int, int] = {}

        def number(node: Language) -> int:
            node = canonical(node)
            found = numbers.get(id(node))
            if found is None:
                found = numbers[id(node)] = len(entries)
                entries.append(node)
                pending.append(found)
            return found

        pending: List[int] = []
        number(language)
        while pending:
            index = pending.pop()
            node = entries[index]
            if node is EMPTY:
                entries[index] = "∅"
            elif id(node) in pristine:
                continue  # named by identity
            elif isinstance(node, Alt):
                entries[index] = ("∪", number(node.left), number(node.right))
            elif isinstance(node, Cat):
                entries[index] = ("◦", number(node.left), number(node.right))
            elif isinstance(node, Delta):
                entries[index] = ("δ", number(node.lang))
            elif isinstance(node, Epsilon):
                entries[index] = "ε"
        return tuple(entries)

    # ------------------------------------------------------------- stepping
    def step_slow(self, state: AutomatonState, tok: Any) -> AutomatonState:
        """Advance one token past the flattened fast path.

        Callers (the executor's hot loops) probe ``state.by_kind`` first and
        come here on a miss: classify the token, consult the class table,
        derive only if the edge is genuinely new.  Impure states keep
        ``by_kind`` empty, so every token routes here and is classified by
        value — the invariant that makes the callers' bare kind probe sound.

        Thread-safe: the class-table probe is lock-free (classification
        reads a frozen terminal list), and a genuine miss re-checks the
        table after taking :attr:`lock`, so concurrent walkers racing on
        the same cold edge derive it once.
        """
        if state.dead:
            return state
        signature = self.classifier.signature(tok)
        if state.language is not None:
            successor = state.by_signature.get(signature)
            if successor is not None:
                if self.pure and not successor.transient and not state.transient:
                    kind = token_kind(tok)
                    state.by_kind[kind] = successor
                    if self.dense is not None:
                        self.dense.record_edge(self.lock, state, kind, successor)
                return successor
        with self.lock:
            if state.language is None:
                self.materialize(state)
            successor = state.by_signature.get(signature)
            if successor is None:
                self.transitions_derived += 1
                uncached = self.metrics.derive_uncached
                derived = self.deriver.derive(state.language, tok)
                if (
                    self.prune_enabled
                    and not isinstance(derived, Empty)
                    and self._prune_schedule.due(self.metrics.derive_uncached)
                ):
                    derived, live_size = prune_empty(derived, self.nullability, self.metrics)
                    self.prune_passes += 1
                    self._prune_schedule.ran(self.metrics.derive_uncached, live_size)
                if isinstance(derived, Empty) or self.productivity.is_empty(derived):
                    # Dead either structurally (the ∅ node) or semantically
                    # (the emptiness analysis proves no completion exists):
                    # route to the sink instead of interning a zombie state.
                    successor = self.dead
                else:
                    successor = self._intern(
                        derived,
                        parent=state,
                        via=tok,
                        budget=_key_budget(self.metrics.derive_uncached - uncached),
                    )
                if not successor.transient and not state.transient:
                    state.by_signature[signature] = successor
            if self.pure and not successor.transient and not state.transient:
                kind = token_kind(tok)
                state.by_kind[kind] = successor
                if self.dense is not None:
                    self.dense.record_edge(self.lock, state, kind, successor)
        return successor

    # -------------------------------------------------------- materialization
    def materialize(self, state: AutomatonState) -> Language:
        """Attach a live language to a deserialized state via its witness chain.

        Walks ``parent`` links up to the nearest state that has a language
        (ultimately the start state, whose language is the grammar root),
        then re-derives downward through the recorded representative tokens.
        The re-derivation populates the persistent memo, so each witness
        edge is paid for at most once per table lifetime.  Takes
        :attr:`lock` (reentrant — :meth:`step_slow` already holds it).
        """
        with self.lock:
            return self._materialize_locked(state)

    def _materialize_locked(self, state: AutomatonState) -> Language:
        chain: List[AutomatonState] = []
        cursor = state
        while cursor.language is None:
            if cursor.parent is None:
                raise ReproError(
                    "cannot materialize automaton state #{}: no witness chain "
                    "links it to the grammar root".format(cursor.index)
                )
            chain.append(cursor)
            cursor = cursor.parent
        language = cursor.language
        for entry in reversed(chain):
            uncached = self.metrics.derive_uncached
            language = self.deriver.derive(language, entry.via)
            if language is EMPTY or isinstance(language, Empty):
                raise ReproError(
                    "corrupt compiled table: the witness chain for state #{} "
                    "derives to the empty language".format(entry.index)
                )
            entry.language = language
            entry.accepting = self.nullability.nullable(language)
            if self.dense is not None and entry.dense_id is not None:
                self.dense.accepting[entry.dense_id] = entry.accepting
            # Reconnect the identity and key interning maps; if another
            # state already claims this node or key the first claimant
            # keeps it (both remain correct: they denote one language).
            self._states.setdefault(language, entry)
            key = self._state_key(
                language, _key_budget(self.metrics.derive_uncached - uncached)
            )
            if key is not None:
                self._by_key.setdefault(key, entry)
        return state.language

    # --------------------------------------------------------- dense metering
    def note_dense_run(self, hits: int, fallbacks: int) -> None:
        """Fold one recognition run's dense-hit/fallback counts into the table.

        The executor counts locally during the run (zero per-token metering
        cost) and reports once at the end; the fold takes :attr:`lock`, per
        the shared-:class:`~repro.core.metrics.Metrics` contract.
        """
        if not hits and not fallbacks:
            return
        with self.lock:
            if self.dense is not None:
                self.dense.hits += hits
                self.dense.fallbacks += fallbacks
            self.metrics.dense_hits += hits
            self.metrics.dense_fallbacks += fallbacks

    # ------------------------------------------------------------ inspection
    @property
    def fingerprint(self) -> str:
        """Structural fingerprint of the (optimized, pre-parse) grammar root."""
        return self._fingerprint

    def state_count(self) -> int:
        """Number of interned (non-transient) automaton states."""
        return len(self._by_index)

    def transition_count(self) -> int:
        """Number of resolved outgoing edges across all states.

        Live states count their ``state × token-class`` edges; states
        deserialized from a saved table carry only flattened kind edges
        until a cache miss re-classifies them, so those are counted
        instead (a kind edge may be finer than a class edge, but zero
        would misreport a warm loaded table as empty).
        """
        total = 0
        for state in self._by_index:
            total += len(state.by_signature) if state.by_signature else len(state.by_kind)
        return total

    def states(self) -> List[AutomatonState]:
        """The interned states in creation order (index order)."""
        return list(self._by_index)

    def stats(self) -> Dict[str, Any]:
        """A summary dictionary for benchmarks, serve logs and debugging.

        The ``dense_*`` keys report promotion progress of the int-indexed
        core: how many kinds/states have dense ids, what fraction of the
        row slots hold a resolved edge, and how many tokens the executor
        resolved densely vs. fell back on (all zero on kind-impure tables,
        which have no core).
        """
        flattened = sum(len(state.by_kind) for state in self._by_index)
        dense = self.dense
        return {
            "states": self.state_count(),
            "class_transitions": self.transition_count(),
            "kind_transitions": flattened,
            "transitions_derived": self.transitions_derived,
            "states_shared": self.states_shared,
            "keys_skipped": self.keys_skipped,
            "key_nodes_walked": self.key_nodes_walked,
            "memo_entries": self.memo.entry_count(),
            "pure": self.pure,
            "dense_states": len(dense.rows) if dense is not None else 0,
            "dense_kinds": len(dense.kinds) if dense is not None else 0,
            "dense_row_fill": dense.row_fill() if dense is not None else 0.0,
            "dense_hits": dense.hits if dense is not None else 0,
            "dense_fallbacks": dense.fallbacks if dense is not None else 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dense = self.dense
        dense_part = (
            ", dense={}x{} fill={:.2f}".format(
                len(dense.rows), len(dense.kinds), dense.row_fill()
            )
            if dense is not None
            else ""
        )
        return "GrammarTable(states={}, transitions={}{})".format(
            self.state_count(), self.transition_count(), dense_part
        )


def compile_grammar(
    grammar: Any,
    optimize: bool = True,
    max_states: Optional[int] = None,
) -> GrammarTable:
    """Return the shared :class:`GrammarTable` for ``grammar``, compiling once.

    The default-configuration table is **anchored on the grammar root**
    (its ``compiled_table`` field, the node-resident idiom of the derive
    memos): the grammar owns its table, every caller that resolves to the
    same graph — repeated :class:`~repro.compile.CompiledParser`
    constructions, the :meth:`~repro.core.parse.DerivativeParser.compile`
    fast path, the ``engine="compiled"`` wrappers, a
    :class:`~repro.cfg.grammar.Grammar` compiled twice — shares the one
    warm transition cache for as long as the grammar lives, and dropping
    the grammar frees grammar, table, memo and cached derivatives as one
    garbage-collected cycle (the anchored table's memo is
    :meth:`~repro.core.memo.PersistentDictMemo.bind_to_graph`-bound, so no
    global finalizer registry pins the cycle).

    Non-default ``optimize``/``max_states`` callers always get a
    **private**, unanchored table built to spec: the shared default cache
    is never reconfigured or hijacked by whoever compiles first, and the
    private table lives only as long as its holders.

    The shared table is deliberately uncapped: states and persistent memo
    entries accumulate per *distinct* input walked, for as long as the
    grammar lives.  Long-running services parsing unbounded varied input
    against a process-lifetime grammar should either bound memory with a
    private capped table (``max_states=...``) or periodically call
    :func:`discard_table` to let the accumulated cache be collected and
    start fresh.
    """
    root = as_root(grammar)
    if not (optimize is True and max_states is None):
        return GrammarTable(root, optimize=optimize, max_states=max_states)
    table = root.compiled_table
    if table is not None:
        return table
    table = GrammarTable(root)
    # The root will hold the table strongly; drop the memo's death-sweep
    # finalizer so the grammar↔table cycle stays collectable (the sweep is
    # pointless here anyway — the entries die with the graph).
    table.memo.bind_to_graph()
    root.compiled_table = table
    if table.root is not root:
        # Initial-grammar optimization may rebuild the root; anchor on the
        # optimized node too so DerivativeParser.compile() (which sees the
        # optimized root) lands on the same table.
        table.root.compiled_table = table
    return table


def discard_table(grammar: Any) -> bool:
    """Un-anchor the grammar's shared table so it can be collected.

    The memory-control valve for long-lived grammars: once the last parser
    holding the old table lets go, the table, its persistent memo and every
    interned derivative state are freed, and the next
    :func:`compile_grammar` starts a fresh cold table.  Parsers still
    holding the old table keep working on it, unaffected.  Returns True
    when an anchored table was discarded.
    """
    root = as_root(grammar)
    table = root.compiled_table
    if table is None:
        return False
    root.compiled_table = None
    if table.root is not root:
        table.root.compiled_table = None
    return True
