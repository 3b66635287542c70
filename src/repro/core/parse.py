"""The outer parsing loop and the public :class:`DerivativeParser` API.

Parsing with derivatives is the composition of three pieces (Section 3 of the
paper calls them ``derive``, ``nullable?`` and ``parse-null``):

1. successively derive the grammar by each input token,
2. ask whether the final grammar is nullable (recognition), and
3. extract the parse forest of the final grammar's empty-word parses
   (``parse-null``), which are exactly the parses of the original input.

:class:`DerivativeParser` wires together the pluggable pieces — memoization
strategy, compaction configuration, nullability analyzer and the optional
naming instrumentation — and exposes ``recognize``, ``parse``,
``parse_forest`` and a few inspection helpers used by the benchmarks.

Two engineering properties of this module are worth calling out:

* **No recursion-limit games.**  Every hot traversal is iterative
  (:mod:`repro.core.derivative`, :func:`parse_null`,
  :mod:`repro.core.forest`, :mod:`repro.core.prune`,
  :mod:`repro.core.nullability`), so inputs of any length parse under the
  default interpreter limit, which is never touched.

* **Streaming.**  :meth:`DerivativeParser.start` returns a
  :class:`ParserState` whose ``feed(token)`` / ``feed_all(tokens)`` methods
  drive the grammar incrementally, so unbounded token streams can be parsed
  without materializing the input (and recognition status can be queried
  between tokens).

Each parser owns its graph: memo entries, states and ``parse-null`` results
live in fields *on the nodes*, so :class:`DerivativeParser` works on a copy
of the grammar it is given (:func:`own_grammar`) and never writes the
caller's.  A parser is thread-confined together with its copy.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from .compaction import CompactionConfig, Compactor, optimize_initial_grammar
from .derivative import Deriver
from .errors import EmptyForestError, GrammarError, ParseError
from .forest import (
    FOREST_EMPTY,
    ForestAmb,
    ForestLeaf,
    ForestMap,
    ForestNode,
    ForestPair,
    ForestRef,
    first_tree,
    iter_trees,
)
from .languages import (
    EMPTY,
    Alt,
    Cat,
    Delta,
    Empty,
    Epsilon,
    Language,
    Reduce,
    Ref,
    Token,
    clone_graph,
    graph_size,
    reachable_nodes,
)
from .memo import DeriveMemo, make_memo
from .metrics import Metrics
from .naming import NamingScheme, grammar_label
from .nullability import NullabilityAnalyzer
from .prune import prune_empty

__all__ = [
    "DerivativeParser",
    "ForestParser",
    "ParserState",
    "ParserSnapshot",
    "parse",
    "recognize",
    "validate_grammar",
    "forest_answer",
    "parse_null",
]


#: ``parse-null`` results are cached on the grammar nodes; the epoch tagging
#: each extraction is global and monotonic so results written by one earlier
#: extraction are never misread by another.
_NULL_PARSE_EPOCHS = itertools.count(1)


def validate_grammar(root: Language) -> None:
    """Check that a grammar graph is fully constructed.

    Raises :class:`GrammarError` when a non-terminal reference was never
    resolved or a binary node is missing a child.  Called by the parser
    constructor so that malformed grammars fail fast with a clear message
    rather than deep inside a derivative.
    """
    for node in reachable_nodes(root):
        if isinstance(node, Ref) and node.target is None:
            raise GrammarError(
                "non-terminal <{}> was never resolved (call .set(...) on the Ref)".format(
                    node.ref_name
                )
            )
        if isinstance(node, (Alt, Cat)) and (node.left is None or node.right is None):
            raise GrammarError("node {!r} is missing a child".format(node))
        if isinstance(node, (Reduce, Delta)) and node.lang is None:
            raise GrammarError("node {!r} is missing its language".format(node))


def own_grammar(grammar: Union[Language, Any]) -> Language:
    """The validated graph an engine owns: a private copy of ``grammar``.

    Engines cache in node fields and optimize and cut in place, so each
    works on a :func:`~repro.core.languages.clone_graph` copy.  An object
    with ``to_language()`` (e.g. :class:`repro.cfg.grammar.Grammar`) is
    converted instead: the conversion is already a fresh graph.
    """
    converted = hasattr(grammar, "to_language")
    root = grammar.to_language() if converted else grammar
    if not isinstance(root, Language):
        raise GrammarError(
            "expected a Language node or an object with to_language(); got {!r}".format(
                type(root)
            )
        )
    validate_grammar(root)
    return root if converted else clone_graph(root)


def parse_null(
    root: Language, nullable: Callable[[Language], bool], metrics: Metrics
) -> ForestNode:
    """Extract the forest of empty-word parses of ``root`` (``parse-null``).

    The one ``parse-null`` of the repository: :class:`DerivativeParser` and
    the 2011 :class:`~repro.baseline.original.OriginalParser` both call it,
    each with its own ``nullable`` test and metrics (the paper's Section 4
    leaves Section 3's ``parse-null`` as it is).

    The result shares structure and uses ambiguity nodes; grammars with
    ε-cycles produce cyclic forests (infinitely many parses), which the
    forest utilities handle explicitly.

    The extraction is iterative and runs in two phases over an explicit
    stack: a discovery pass allocates one (possibly cyclic) forest
    skeleton per reachable nullable grammar node and caches it on the
    node under a globally fresh epoch, then a wiring pass links every
    skeleton to its children's results.  Cycles in the grammar therefore
    become cycles in the forest graph directly, with no placeholder
    juggling and no recursion.  The node fields written are the caller's
    own graph's (each engine owns its copy, :func:`own_grammar`).
    """
    epoch = next(_NULL_PARSE_EPOCHS)

    # Phase 1: allocate a result skeleton for every node that needs one.
    pending: List[Language] = []
    stack: List[Language] = [root]
    while stack:
        node = stack.pop()
        if node.null_parse_epoch == epoch and node.null_parse_result is not None:
            continue
        metrics.parse_null_calls += 1

        if isinstance(node, (Empty, Token)):
            node.null_parse_epoch = epoch
            node.null_parse_result = FOREST_EMPTY
            continue
        if isinstance(node, Epsilon):
            node.null_parse_epoch = epoch
            node.null_parse_result = ForestLeaf(node.trees)
            continue
        # Nodes that cannot produce the empty word contribute nothing;
        # pruning here keeps forests small and avoids chasing useless
        # cycles.
        if not nullable(node):
            node.null_parse_epoch = epoch
            node.null_parse_result = FOREST_EMPTY
            continue

        if isinstance(node, Alt):
            skeleton: ForestNode = ForestAmb([])
            children = (node.right, node.left)
        elif isinstance(node, Cat):
            skeleton = ForestPair(FOREST_EMPTY, FOREST_EMPTY)
            children = (node.right, node.left)
        elif isinstance(node, Reduce):
            skeleton = ForestMap(node.fn, FOREST_EMPTY)
            children = (node.lang,)
        elif isinstance(node, Delta):
            skeleton = ForestRef()
            children = (node.lang,)
        elif isinstance(node, Ref):
            skeleton = ForestRef()
            children = (node.target,)
        else:  # pragma: no cover - defensive
            raise GrammarError(
                "cannot parse-null unknown node type: {!r}".format(node)
            )
        node.null_parse_epoch = epoch
        node.null_parse_result = skeleton
        pending.append(node)
        stack.extend(children)

    # Phase 2: wire each skeleton to its children's (now cached) results.
    for node in pending:
        skeleton = node.null_parse_result
        if isinstance(node, Alt):
            skeleton.alternatives.append(node.left.null_parse_result)
            skeleton.alternatives.append(node.right.null_parse_result)
        elif isinstance(node, Cat):
            skeleton.left = node.left.null_parse_result
            skeleton.right = node.right.null_parse_result
        elif isinstance(node, Reduce):
            skeleton.child = node.lang.null_parse_result
        elif isinstance(node, Delta):
            skeleton.target = node.lang.null_parse_result
        else:  # Ref
            skeleton.target = node.target.null_parse_result

    return root.null_parse_result


def forest_answer(
    forest: ForestNode,
    tokens: Sequence[Any],
    want: str = "tree",
    limit: Optional[int] = None,
    ranking: Optional[Any] = None,
    rng: Any = None,
    n: int = 1,
) -> Any:
    """What a parse of ``tokens`` answers from its ``forest``.

    ``want`` picks the answer: ``"tree"`` — one tree; ``"trees"`` — up to
    ``limit`` trees, best-first under ``ranking`` when one is given; or
    ``"sample"`` — ``n`` uniform samples drawn with ``rng``.  A forest
    without a finite tree raises :class:`ParseError` at ``len(tokens)``:
    the input was recognized, so the failure lies past its last token.
    :class:`ForestParser`'s ``parse``/``parse_trees``/``sample_parses``
    and an :class:`~repro.incremental.IncrementalDocument`'s answers end here.
    """
    try:
        if want == "tree":
            return first_tree(forest)
        if want == "trees":
            if ranking is None:
                return list(iter_trees(forest, limit=limit))
            from .forest_query import iter_trees_ranked

            return list(iter_trees_ranked(forest, ranking, limit))
        if want == "sample":
            from .forest_query import sample_trees

            return sample_trees(forest, rng, n)
    except EmptyForestError:
        raise ParseError(
            "input recognized but no finite parse tree could be extracted",
            position=len(tokens),
            tokens=tokens,
        ) from None
    raise ValueError("unknown forest answer {!r}".format(want))


class ForestParser:
    """The tree answers every engine shares, over one forest-building step.

    A subclass defines :meth:`_forest`: the parse forest of a token *list*,
    raising :class:`ParseError` when the input is rejected.  The public
    calls read any iterable into a list once — so a rejected one-shot
    iterator reports its list position — and answer through
    :func:`forest_answer`.
    """

    def _forest(self, tokens: Sequence[Any]) -> ForestNode:
        raise NotImplementedError

    def parse_forest(self, tokens: Iterable[Any]) -> ForestNode:
        """Parse and return the shared parse forest (with ambiguity nodes)."""
        return self._forest(_token_list(tokens))

    def parse(self, tokens: Iterable[Any]) -> Any:
        """Parse and return a single parse tree.

        For ambiguous grammars this returns the forest's first tree in
        derivation order (:func:`repro.core.forest.first_tree`); use
        :meth:`parse_forest` / :meth:`parse_trees` to inspect every parse.
        """
        tokens = _token_list(tokens)
        return forest_answer(self._forest(tokens), tokens)

    def parse_trees(
        self,
        tokens: Iterable[Any],
        limit: Optional[int] = None,
        ranking: Optional[Any] = None,
    ) -> List[Any]:
        """Parse and return up to ``limit`` distinct parse trees.

        With ``ranking`` (a :class:`repro.core.forest_query.Ranking` or a
        registered ranking name such as ``"size"``/``"depth"``) trees come
        back best-first via lazy top-k extraction: memory stays bounded by
        ``limit`` even when the forest holds astronomically many parses.
        Without a ranking, trees come as :func:`repro.core.forest.iter_trees`
        yields them: derivation order with repeats removed, the first being
        :meth:`parse`'s tree.  On an infinitely ambiguous (cyclic) forest
        they are drawn from its finite core — a subset of the trees whose
        derivation never revisits a node on its own root path, non-empty
        whenever the forest has a finite tree.
        """
        tokens = _token_list(tokens)
        return forest_answer(
            self._forest(tokens), tokens, "trees", limit=limit, ranking=ranking
        )

    def sample_parses(self, tokens: Iterable[Any], rng: Any, n: int = 1) -> List[Any]:
        """Parse and draw ``n`` uniform samples over the forest's derivations.

        ``rng`` is an explicit ``random.Random`` instance or an ``int`` seed
        (this repo audits against global-RNG use).  Sampling descends the
        shared forest with exact count-proportional choices — no
        enumeration, so it is cheap even at 10^21 parses.
        """
        tokens = _token_list(tokens)
        return forest_answer(self._forest(tokens), tokens, "sample", rng=rng, n=n)


def _token_list(tokens: Iterable[Any]) -> Sequence[Any]:
    """``tokens`` as a list or tuple (a one-shot iterator is read once)."""
    return tokens if isinstance(tokens, (list, tuple)) else list(tokens)


class ParserSnapshot:
    """An O(1) snapshot of a :class:`ParserState` at one stream position.

    Because derived languages are persistent graphs (derivation only ever
    builds new nodes; the in-place rewrites of
    :func:`repro.core.prune.cut_dead_children` replace provably-empty
    children with the semantically identical ``∅``), a snapshot is a
    *reference* copy: it pins the derived-language node for a prefix, never
    a deep copy of it.  Resume one with :meth:`DerivativeParser.resume` — this is
    the substrate :mod:`repro.incremental` builds its checkpoint trails
    on.
    """

    __slots__ = ("language", "position", "failure_position")

    def __init__(
        self,
        language: Language,
        position: int,
        failure_position: Optional[int],
    ) -> None:
        self.language = language
        self.position = position
        self.failure_position = failure_position

    def __repr__(self) -> str:
        status = (
            "failed@{}".format(self.failure_position)
            if self.failure_position is not None
            else "alive"
        )
        return "ParserSnapshot(position={}, {})".format(self.position, status)


class ParserState:
    """Incremental (streaming) parsing state over a :class:`DerivativeParser`.

    A state starts at the parser's initial grammar and is advanced one token
    at a time with :meth:`feed` (or in bulk with :meth:`feed_all`); it never
    materializes the consumed tokens as a list, so it suits token streams
    that arrive in pieces (sockets, token generators, log tails):

    >>> state = parser.start()
    >>> for tok in stream:
    ...     state.feed(tok)
    ...     if state.failed:
    ...         break
    >>> accepted = state.accepts()

    **``feed`` after failure is a no-op.**  Once the derived language
    collapses to ``∅`` the state is dead for good: further :meth:`feed` (and
    :meth:`feed_all`) calls return immediately without deriving, without
    advancing :attr:`position` and without touching
    :attr:`failure_position`, which keeps pointing at the token that killed
    the stream.  Driving loops therefore never need to special-case dead
    streams — feeding a corpse is free and changes nothing.

    ``failed`` is exact: the deriver settles each step as it ends and
    returns ``∅`` for a language that no completion can reach, so a stream
    fails at the very token that killed it (the position Earley reports),
    and ``failed=False`` promises that some completion exists.

    **Memory is not O(live grammar) today.**  The state references only the
    current derived language, but the parser still retains the derivation
    history behind it: the deriver's single-null-tree answers (cleared only
    by :meth:`DerivativeParser.reset`) and stale memo entries on pristine
    and live nodes that pin every later generation of derivatives.  On
    PL/0 that is ~21 retained nodes per consumed token, while the live
    grammar stays near 150 nodes.  Long recognition-only streams should run
    on the compiled cursor (:meth:`DerivativeParser.compile` then
    ``start()``), which keeps O(1) memory.
    """

    __slots__ = ("parser", "language", "position", "failure_position")

    def __init__(self, parser: "DerivativeParser") -> None:
        self.parser = parser
        self.language: Language = parser.root
        #: Number of tokens consumed so far.
        self.position = 0
        #: Index of the token that killed the language, or None while alive.
        self.failure_position: Optional[int] = None

    # ------------------------------------------------------------- predicates
    @property
    def failed(self) -> bool:
        """True once the derived language has become ∅ (no completion exists)."""
        return self.failure_position is not None

    def accepts(self) -> bool:
        """True when the tokens consumed so far form a complete parse."""
        if self.failed:
            return False
        return self.parser.nullability.nullable(self.language)

    # -------------------------------------------------------------- snapshots
    def snapshot(self) -> ParserSnapshot:
        """An O(1) reference snapshot of this state (see :class:`ParserSnapshot`)."""
        return ParserSnapshot(self.language, self.position, self.failure_position)

    # ---------------------------------------------------------------- driving
    def feed(self, token: Any) -> "ParserState":
        """Consume one token, deriving the current language by it."""
        if self.failed:
            return self
        parser = self.parser
        language = parser.deriver.derive(self.language, token, self.position)
        parser.metrics.tokens_consumed += 1
        self.position += 1
        if language is EMPTY:
            self.failure_position = self.position - 1
        self.language = language
        return self

    def feed_all(self, tokens: Iterable[Any]) -> "ParserState":
        """Consume every token from an iterable (stops deriving on failure).

        Stops *before* pulling the next element once the state fails, so a
        one-shot iterator (socket, generator) keeps every unconsumed token —
        callers can resume reading it for error recovery.
        """
        if self.failed:
            return self
        for token in tokens:
            self.feed(token)
            if self.failed:
                break
        return self

    # ---------------------------------------------------------------- results
    def forest(self) -> ForestNode:
        """The parse forest of the tokens consumed so far (raises on failure)."""
        if self.failed:
            raise ParseError(
                "unexpected token", position=self.failure_position, token=None
            )
        if not self.parser.nullability.nullable(self.language):
            # A live language is productive (a dead one is ∅ at the token
            # that killed it), so more input could still complete it.
            raise ParseError("unexpected end of input", position=self.position, token=None)
        return self.parser.parse_null(self.language)

    def tree(self) -> Any:
        """One parse tree of the tokens consumed so far (raises on failure)."""
        try:
            return first_tree(self.forest())
        except ValueError:
            raise ParseError(
                "input recognized but no finite parse tree could be extracted",
                position=self.position,
            ) from None

    def __repr__(self) -> str:
        status = "failed@{}".format(self.failure_position) if self.failed else "alive"
        return "ParserState(grammar={}, position={}, {})".format(
            grammar_label(self.parser.root), self.position, status
        )


class DerivativeParser(ForestParser):
    """A parser for an arbitrary context-free grammar given as a language graph.

    Parameters
    ----------
    grammar:
        The root :class:`~repro.core.languages.Language` node (copied, never
        written), or an object with a ``to_language()`` method (e.g.
        :class:`repro.cfg.grammar.Grammar`), converted automatically.
    memo:
        Memoization strategy for ``derive``: ``"single"`` (the paper's
        improved single-entry strategy, default) or ``"dict"`` (full per-node
        hash tables).  A pre-built :class:`~repro.core.memo.DeriveMemo` may
        also be passed.
    compaction:
        A :class:`~repro.core.compaction.CompactionConfig`, or True/False for
        the full/disabled configurations.
    optimize_grammar:
        Whether to run the initial-grammar-only compaction rules of
        Section 4.3.1 before parsing (default True).  When compaction is
        on, the grammar's own dead branches are then cut to ``∅`` once
        (:func:`~repro.core.prune.prune_empty`); each derive step cuts the
        dead branches it builds itself.
    naming:
        Enable the Definition 5 naming instrumentation (default False).
    metrics:
        An optional shared :class:`~repro.core.metrics.Metrics` instance.
    """

    def __init__(
        self,
        grammar: Union[Language, Any],
        memo: Union[str, DeriveMemo] = "single",
        compaction: Union[CompactionConfig, bool, None] = None,
        optimize_grammar: bool = True,
        naming: bool = False,
        metrics: Optional[Metrics] = None,
    ) -> None:
        # Remember the caller's grammar object: compile() resolves the
        # shared table through it, so a cfg.Grammar lands on its cached
        # language() graph (the table's anchor) rather than on the fresh
        # to_language() conversion this parser interprets.
        self._compile_source = grammar
        grammar = own_grammar(grammar)

        self.metrics = metrics if metrics is not None else Metrics()

        if compaction is None or compaction is True:
            compaction_config = CompactionConfig.full()
        elif compaction is False:
            compaction_config = CompactionConfig.disabled()
        else:
            compaction_config = compaction
        self.compaction_config = compaction_config
        self.compactor = Compactor(compaction_config, self.metrics)

        if isinstance(memo, DeriveMemo):
            self.memo = memo
            self.memo.metrics = self.metrics
        else:
            self.memo = make_memo(memo, self.metrics)

        self.nullability = NullabilityAnalyzer(self.metrics)
        self.naming = NamingScheme() if naming else None

        if optimize_grammar and compaction_config.enabled:
            grammar = optimize_initial_grammar(grammar, self.compactor)
        if compaction_config.enabled:
            # No derive step builds the grammar, so its dead branches are
            # cut here, once; this also settles every live grammar node.
            grammar, _ = prune_empty(grammar, self.nullability)
        self.root = grammar
        self.memo.adopt_grammar(self.root)

        if self.naming is not None:
            self.naming.assign_initial(self.root)

        self.deriver = Deriver(
            memo=self.memo,
            compactor=self.compactor,
            nullability=self.nullability,
            metrics=self.metrics,
            naming=self.naming,
        )

    # ------------------------------------------------------------------ API
    def reset(self) -> None:
        """Forget per-parse caches (the paper clears them before each timed parse).

        Clears the derive memo and the deriver's single-null-tree answers
        (both hold this parser's derived nodes; dropping one but not the
        other would leak every derivative ever answered).
        """
        self.memo.clear()
        self.deriver.clear_null_trees()

    def start(self) -> ParserState:
        """Begin a streaming parse at the grammar's root; see :class:`ParserState`.

        The state keeps no history: a caller that wants checkpoints takes
        :meth:`ParserState.snapshot` where it needs one (an
        :class:`~repro.incremental.IncrementalDocument` records its trail
        that way).
        """
        return ParserState(self)

    def resume(self, snapshot: ParserSnapshot) -> ParserState:
        """A new :class:`ParserState` positioned exactly at ``snapshot``.

        The snapshot must have been taken from a state of this parser
        (states of other parsers reference foreign nodes whose caches this
        parser does not own).  Resuming is O(1): the snapshot's language is
        adopted by reference, and re-deriving from it is sound because its
        nodes belong to this parser's own graph — the private copy of the
        grammar and the nodes derived from it — whose node-resident caches
        only this parser writes.  Like :meth:`start`, it records nothing.
        """
        state = ParserState(self)
        state.language = snapshot.language
        state.position = snapshot.position
        state.failure_position = snapshot.failure_position
        return state

    def compile(self) -> "Any":
        """Return a :class:`~repro.compile.CompiledParser` over this grammar.

        The fast path for repeated parsing: the compiled parser executes the
        grammar's shared derivative automaton (interned states, per-token-
        class transitions) instead of deriving per token, and its transition
        table persists across parses and parser instances.  Compiling is
        lazy — the table fills as input is consumed — and independent of
        this parser: the table derives on its own copy of the grammar.

        The table is resolved through the grammar object this parser was
        constructed from, so ``DerivativeParser(g).compile()`` and
        ``CompiledParser(g)`` share one table even when ``g`` is a
        :class:`~repro.cfg.grammar.Grammar` (whose interpreted conversion
        here is a separate graph from its cached ``language()``).
        """
        from ..compile import CompiledParser

        return CompiledParser(self._compile_source)

    def grammar_size(self) -> int:
        """``G`` — the number of nodes in the (optimized) initial grammar."""
        return graph_size(self.root)

    def derive_all(self, tokens: Iterable[Any]) -> Language:
        """Derive the grammar by every token and return the final language."""
        state = self.start()
        state.feed_all(tokens)
        if state.failed:
            return EMPTY
        return state.language

    def derivative_trace(self, tokens: Sequence[Any]) -> List[Language]:
        """Return the list of intermediate grammars ``[L, Dc1 L, Dc2 Dc1 L, ...]``."""
        state = self.start()
        trace = [state.language]
        for tok in tokens:
            state.feed(tok)
            trace.append(state.language)
            if state.failed:
                break
        return trace

    def recognize(self, tokens: Iterable[Any]) -> bool:
        """True when the token sequence is in the grammar's language."""
        return self.start().feed_all(tokens).accepts()

    def _forest(self, tokens: Sequence[Any]) -> ForestNode:
        state = self.start().feed_all(tokens)
        if state.failed or not self.nullability.nullable(state.language):
            raise self._failure_error(tokens, state.failure_position)
        return self.parse_null(state.language)

    @staticmethod
    def _failure_error(tokens: Sequence[Any], position: Optional[int]) -> ParseError:
        """The :class:`ParseError` of a rejected input.

        ``position`` is the failed state's ``failure_position``: the deriver
        returns ``∅`` at the very token that leaves the language empty (it
        settles every step, :mod:`repro.core.derivative`), which is the
        position chart parsers like Earley report.  None means the input
        ended while a completion still existed.
        """
        if position is None:
            return ParseError(
                "unexpected end of input", position=len(tokens), token=None, tokens=tokens
            )
        return ParseError(
            "unexpected token", position=position, token=tokens[position], tokens=tokens
        )

    def parse_null(self, node: Language) -> ForestNode:
        """The forest of ``node``'s empty-word parses (see :func:`parse_null`)."""
        return parse_null(node, self.nullability.nullable, self.metrics)


def recognize(
    grammar: Union[Language, Any],
    tokens: Iterable[Any],
    engine: str = "derivative",
    **kwargs: Any,
) -> bool:
    """Convenience wrapper: build a parser and recognize.

    ``engine`` selects the execution strategy: ``"derivative"`` (the
    interpreted parser, default) or ``"compiled"`` (the shared derivative
    automaton of :mod:`repro.compile` — fastest when the same grammar is
    queried repeatedly, since its transition table is grammar-owned and
    persists across calls).  The interpreted knobs (``memo``,
    ``compaction``, …) do not apply to the compiled engine; passing one
    raises a clear :class:`TypeError` rather than crashing inside the
    constructor.  Note that ``max_states`` forfeits the cross-call
    sharing: capped tables are always private (see
    :func:`repro.compile.compile_grammar`), so a capped wrapper call
    compiles cold every time — hold a :class:`CompiledParser` instead when
    you need both a cap and warmth.
    """
    return _make_parser(grammar, engine, kwargs).recognize(tokens)


def parse(
    grammar: Union[Language, Any],
    tokens: Sequence[Any],
    engine: str = "derivative",
    **kwargs: Any,
) -> Any:
    """Convenience wrapper: build a parser and parse (see :func:`recognize`)."""
    return _make_parser(grammar, engine, kwargs).parse(tokens)


#: Keyword arguments CompiledParser accepts; everything else is an
#: interpreted-engine knob that has no compiled equivalent.
_COMPILED_KWARGS = frozenset({"table", "max_states"})


def _make_parser(grammar: Any, engine: str, kwargs: dict) -> Any:
    """Shared engine dispatch for the :func:`recognize`/:func:`parse` wrappers."""
    if engine == "compiled":
        unsupported = sorted(set(kwargs) - _COMPILED_KWARGS)
        if unsupported:
            raise TypeError(
                "option(s) {} are not supported by engine='compiled'; the "
                "compiled automaton accepts only {}".format(
                    ", ".join(map(repr, unsupported)), sorted(_COMPILED_KWARGS)
                )
            )
        from ..compile import CompiledParser

        return CompiledParser(grammar, **kwargs)
    if engine != "derivative":
        raise ValueError(
            "unknown engine {!r}; expected 'derivative' or 'compiled'".format(engine)
        )
    return DerivativeParser(grammar, **kwargs)
