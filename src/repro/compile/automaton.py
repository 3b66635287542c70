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
  one derivative covers every token in a class.  On kind-pure tables
  each state also keeps an *edge dict* linking token kinds straight to
  the successor's edge dict, which the executor's hot loop chases with
  one ``dict.get`` per token.

* **The grammar owns the table; the table owns its graph.**  The
  default-configuration table is anchored on the grammar root's
  ``compiled_table`` field — the node-resident idiom of the derive memos
  — so every :class:`~repro.compile.CompiledParser` over the same root
  shares one table, across parses and across parser instances, for as
  long as the grammar lives (see :func:`compile_grammar`).  The table
  itself optimizes, cuts and derives on a private copy of the grammar
  (:func:`~repro.core.languages.clone_graph`), so the anchor is the one
  field it writes on the caller's graph.

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
hot loops probe ``edges``/``by_signature`` without synchronization, and
every mutation — deriving a new transition, interning a state, linking an
edge, repacking the edge dicts, materializing a witness chain, and the
metrics counters those paths bump — happens under the table's
:attr:`GrammarTable.lock`.  The lock-free reads are sound on CPython
because (a) dictionary get/set are individually atomic under the GIL and
(b) a successor state is fully initialized (``accepting``/``dead``
assigned, its edge dict created) *before* the assignment that publishes
it into a transition dict, so a racing reader sees either a miss or a
complete state, never a partial one.  The table's private graph is
written by locked paths only, and on :attr:`GrammarTable.root` only in
memo fields: construction leaves every live node of the root settled
and cut.  So any thread may copy the root without the lock
(:func:`~repro.core.languages.clone_graph` reads structure and states,
never memo fields), which is how tree-producing parsers — the fallback
of :class:`~repro.compile.CompiledParser`, the serve layer's worker
parsers — get graphs of their own.
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
    DEAD,
    EMPTY,
    Alt,
    Cat,
    Delta,
    Epsilon,
    Language,
    Reduce,
    Ref,
    reachable_nodes,
    structural_fingerprint,
    token_kind,
)
from ..core.memo import PersistentDictMemo
from ..core.metrics import Metrics
from ..core.nullability import NullabilityAnalyzer
from ..core.parse import own_grammar
from ..core.prune import prune_empty
from .classes import TokenClassifier

__all__ = [
    "AutomatonState",
    "STATE",
    "GrammarTable",
    "compile_grammar",
    "discard_table",
    "as_root",
]

#: Reserved key in every edge dict, mapping to the state that owns the dict.
#: A fresh ``object()`` never compares equal to a token kind, so the
#: reservation is invisible to ``edges.get(kind)`` probes.
STATE = object()


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
    table, and ``edges`` is the executor's fast path — token kind → the
    successor's own ``edges`` dict, with :data:`STATE` mapping to this
    state.  Edges are linked only when the table's shared classifier is
    kind-pure (the classifier — and with it purity — is a property of the
    grammar's terminal alphabet, so it lives on the :class:`GrammarTable`,
    not here); dead edges link to the ``∅`` sink's dict, which never gets
    edges of its own.

    ``parent``/``via`` record how the state was first reached — the witness
    used to re-derive the language after deserialization.  ``transient``
    states were built past the table's ``max_states`` cap and are never
    cached in any transition table (nor get edges).
    """

    __slots__ = (
        "index",
        "language",
        "accepting",
        "dead",
        "transient",
        "edges",
        "by_signature",
        "parent",
        "via",
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
        self.edges: Dict[Any, Any] = {STATE: self}
        self.by_signature: Dict[Any, "AutomatonState"] = {}
        self.parent = parent
        self.via = via

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flags = []
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
        A :class:`Language` root (copied, never written) or an object with
        a ``to_language()`` conversion.  The table always runs the
        initial-grammar compaction of Section 4.3.1 on its copy first (as
        :class:`~repro.core.parse.DerivativeParser` does by default), then
        cuts the grammar's own dead branches to ``∅`` once
        (:func:`~repro.core.prune.prune_empty`).  Its deriver cuts the dead
        branches each step builds, and returns ``∅`` for a dead successor,
        which goes to the sink.  Both cuts rewrite child pointers in place
        and preserve languages, so already-interned states sharing the
        rewritten nodes stay valid.
    max_states:
        Optional cap on interned states.  Derivation past the cap still
        works (and is still memoized by the persistent derive memo) but the
        resulting states are *transient*: they are not interned and no
        transition entry points at them, bounding the table's memory on
        adversarial inputs whose state space never recurs.
    metrics:
        Optional shared :class:`~repro.core.metrics.Metrics`.
    fingerprint:
        The grammar's :func:`~repro.core.languages.structural_fingerprint`,
        when the caller has it already (the serve cache's key).
    """

    def __init__(
        self,
        grammar: Any,
        max_states: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        root = own_grammar(grammar)
        #: :func:`~repro.core.languages.structural_fingerprint` of the
        #: grammar as the caller built it (the private copy, before any
        #: optimization or cut): the key every cache, store and shard of
        #: the serve layer computes for the grammar, and the stamp a saved
        #: table is verified against when it is loaded.
        self.fingerprint = fingerprint or structural_fingerprint(root)
        #: Guards every mutation of the table and of its private graph
        #: (transition derivation, state interning, witness
        #: materialization, metrics).  Warm walks read the
        #: transition dicts without taking it; see the module docstring for
        #: why that is sound.  Reentrant because :meth:`step_slow` holds it
        #: while materializing a witness chain.
        self.lock = threading.RLock()
        self.metrics = metrics if metrics is not None else Metrics()
        self.compaction_config = CompactionConfig.full()
        #: The deriver's compactor keeps no trees: states are recognition
        #: devices, and trees come from parsers over :attr:`root`, which is
        #: therefore optimized with the tree-keeping compactor below.
        self.compactor = TreeFreeCompactor(self.compaction_config, self.metrics)
        #: The transition cache's backbone: a grammar-lifetime derive memo.
        #: Its entries on the table's nodes are what make state
        #: interning by node identity sound (same node × same token → the
        #: identical result node, for the lifetime of this table).
        self.memo = PersistentDictMemo(self.metrics)
        self.nullability = NullabilityAnalyzer(self.metrics)
        self.deriver = Deriver(
            memo=self.memo,
            compactor=self.compactor,
            nullability=self.nullability,
            metrics=self.metrics,
        )
        root = optimize_initial_grammar(
            root, Compactor(self.compaction_config, self.metrics)
        )
        self.root = root
        #: ``id → node`` for every node reachable from the root before any
        #: derivation.  The canonical state key stops at these and names
        #: them by identity: derivation never changes their language (it
        #: builds no Token and fills only nodes of its own; cutting a dead
        #: branch preserves languages).  The values pin the ids for the
        #: table's lifetime.
        self._pristine = {id(node): node for node in reachable_nodes(root)}
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
        #: link ``kind → successor`` edges; when False, every token is
        #: classified by value (``edges`` stay empty everywhere).
        self.pure = self.classifier.pure
        self.max_states = max_states
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
        #: Tokens the executor resolved by an edge dict / by :meth:`step_slow`.
        self.dense_hits = 0
        self.dense_fallbacks = 0
        #: How many states' edge dicts the last :meth:`repack` laid out.
        self.packed_states = 0
        self.dead = AutomatonState(index=-1, language=EMPTY, accepting=False, dead=True)
        # No derive step builds the grammar, so its dead branches are cut
        # here, once.  The root node stays the start state's language even
        # when the whole grammar is dead: the root anchors the table.
        prune_empty(root, self.nullability)
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
        that built the state.  Every derived node is settled by the step
        that built it, and the key lists the nodes in discovery order:

        * a dead node is ``∅``, and a ``∪`` with a dead side is its other
          side;
        * ``↪`` and ``Ref`` are transparent (the table's states carry no
          trees, so a reduction changes nothing);
        * ``∪``/``◦`` are ordered pairs and ``δ`` a single child, by index;
        * a derived ``ε`` is the unit ``ε``.
        """
        pristine = self._pristine
        seen: set = set()
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
            if isinstance(node, (Alt, Cat)):
                stack.append(node.right)
                stack.append(node.left)
            elif isinstance(node, (Reduce, Delta)):
                stack.append(node.lang)
            elif isinstance(node, Ref):
                stack.append(node.target)
        self.key_nodes_walked += len(seen)

        def canonical(node: Language) -> Language:
            # Every skip lands on a node of equal language; a loop of skips
            # would be a language equal only to itself, which is dead.
            while node.state != DEAD and id(node) not in pristine:
                if isinstance(node, Reduce):
                    node = node.lang
                elif isinstance(node, Ref):
                    node = node.target
                elif isinstance(node, Alt) and node.left.state == DEAD:
                    node = node.right
                elif isinstance(node, Alt) and node.right.state == DEAD:
                    node = node.left
                else:
                    return node
            return EMPTY if node.state == DEAD else node

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
        """Advance one token past the edge dicts.

        Callers (the executor's hot loops) probe ``state.edges`` first and
        come here on a miss: classify the token, consult the class table,
        derive only if the edge is genuinely new, and link the kind edge
        on the way out.  Impure and transient states never get edges, so
        every token routes here and is classified by value — the invariant
        that makes the callers' bare kind probe sound.

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
                if self.pure:
                    with self.lock:
                        self._link(state, tok, successor)
                return successor
        with self.lock:
            if state.language is None:
                self.materialize(state)
            successor = state.by_signature.get(signature)
            if successor is None:
                self.transitions_derived += 1
                uncached = self.metrics.derive_uncached
                derived = self.deriver.derive(state.language, tok)
                if derived is EMPTY:
                    # The deriver returns ∅ for every dead language: route
                    # to the sink instead of interning a zombie state.
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
            if self.pure:
                self._link(state, tok, successor)
        return successor

    def _link(self, state: AutomatonState, tok: Any, successor: AutomatonState) -> None:
        """Link ``tok``'s kind from ``state`` to ``successor`` (table-locked)."""
        if not (state.transient or successor.transient):
            state.edges[token_kind(tok)] = successor.edges

    # -------------------------------------------------------------- repacking
    def needs_repack(self) -> bool:
        """True when enough states were interned since the last repack.

        Safe to call lock-free (two monotone int reads; worst case a
        harmless extra or missed check).  The ``dirty * 8 >= packed``
        threshold keeps the O(states + edges) repack amortized against at
        least 12.5% automaton growth, and fires on the *first* warm run
        after any cold compilation (``packed_states == 0``).
        """
        dirty = len(self._by_index) - self.packed_states
        return dirty > 0 and dirty * 8 >= self.packed_states

    def repack(self) -> None:
        """Rebuild every state's edge dict compactly (table-locked).

        Edge dicts created during cold compilation are interleaved with the
        derivation's memo churn and end up scattered across the heap;
        chasing them costs cache/TLB misses per token.  Rebuilding them in
        one allocation burst restores locality.  The new dicts are copied
        from the old ones; a walker still holding an old dict keeps walking
        a consistent chain (each old dict still names its state under
        :data:`STATE`), and its next miss re-enters the new dicts through
        :meth:`step_slow`.  Every edge write takes :attr:`lock`, so none is
        lost to the swap.
        """
        with self.lock:
            states = self._by_index
            fresh = [{STATE: state} for state in states]
            for state, edges in zip(states, fresh):
                for kind, target in state.edges.items():
                    if kind is not STATE:
                        successor = target[STATE]
                        edges[kind] = target if successor.dead else fresh[successor.index]
            for state, edges in zip(states, fresh):
                state.edges = edges
            self.packed_states = len(fresh)

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
            if language is EMPTY:
                raise ReproError(
                    "corrupt compiled table: the witness chain for state #{} "
                    "derives to the empty language".format(entry.index)
                )
            entry.language = language
            entry.accepting = self.nullability.nullable(language)
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

    # --------------------------------------------------------- edge metering
    def note_dense_run(self, hits: int, fallbacks: int) -> None:
        """Fold one run's edge-hit/``step_slow`` counts into the table.

        The executor counts locally during the run (zero per-token metering
        cost) and reports once at the end; the fold takes :attr:`lock`, per
        the shared-:class:`~repro.core.metrics.Metrics` contract.
        """
        if not hits and not fallbacks:
            return
        with self.lock:
            self.dense_hits += hits
            self.dense_fallbacks += fallbacks
            self.metrics.dense_hits += hits
            self.metrics.dense_fallbacks += fallbacks

    # ------------------------------------------------------------ inspection
    def state_count(self) -> int:
        """Number of interned (non-transient) automaton states."""
        return len(self._by_index)

    def transition_count(self) -> int:
        """Number of resolved outgoing edges across all states.

        Live states count their ``state × token-class`` edges; states
        deserialized from a saved table carry only kind edges until a
        cache miss re-classifies them, so those are counted instead (a
        kind edge may be finer than a class edge, but zero would misreport
        a warm loaded table as empty).
        """
        total = 0
        for state in self._by_index:
            total += len(state.by_signature) or len(state.edges) - 1
        return total

    def states(self) -> List[AutomatonState]:
        """The interned states in creation order (index order)."""
        return list(self._by_index)

    def stats(self) -> Dict[str, Any]:
        """A summary dictionary for benchmarks, serve logs and debugging.

        ``dense_hits``/``dense_fallbacks`` count the tokens the executor
        resolved by an edge dict vs. by :meth:`step_slow`, over the
        table's lifetime.
        """
        return {
            "states": self.state_count(),
            "class_transitions": self.transition_count(),
            "transitions_derived": self.transitions_derived,
            "states_shared": self.states_shared,
            "keys_skipped": self.keys_skipped,
            "key_nodes_walked": self.key_nodes_walked,
            "memo_entries": self.memo.entry_count(),
            "pure": self.pure,
            "dense_hits": self.dense_hits,
            "dense_fallbacks": self.dense_fallbacks,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "GrammarTable(states={}, transitions={})".format(
            self.state_count(), self.transition_count()
        )


def compile_grammar(grammar: Any, max_states: Optional[int] = None) -> GrammarTable:
    """Return the shared :class:`GrammarTable` for ``grammar``, compiling once.

    The default-configuration table is **anchored on the grammar root**
    (its ``compiled_table`` field, the node-resident idiom of the derive
    memos): the grammar owns its table, every caller that resolves to the
    same graph — repeated :class:`~repro.compile.CompiledParser`
    constructions, the :meth:`~repro.core.parse.DerivativeParser.compile`
    fast path, the ``engine="compiled"`` wrappers, a
    :class:`~repro.cfg.grammar.Grammar` compiled twice — shares the one
    warm transition cache for as long as the grammar lives.  The table
    derives on its own copy of the grammar, so nothing it builds refers
    back to the anchoring root: dropping the grammar frees the table, and
    its memo's finalizer sweeps the cached derivatives.

    Callers that pass ``max_states`` always get a **private**, unanchored
    table built to spec: the shared default cache is never reconfigured or
    hijacked by whoever compiles first, and the private table lives only as
    long as its holders.

    The shared table is deliberately uncapped: states and persistent memo
    entries accumulate per *distinct* input walked, for as long as the
    grammar lives.  Long-running services parsing unbounded varied input
    against a process-lifetime grammar should either bound memory with a
    private capped table (``max_states=...``) or periodically call
    :func:`discard_table` to let the accumulated cache be collected and
    start fresh.
    """
    root = as_root(grammar)
    if max_states is not None:
        return GrammarTable(root, max_states=max_states)
    table = root.compiled_table
    if table is not None:
        return table
    table = GrammarTable(root)
    root.compiled_table = table
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
    return True
