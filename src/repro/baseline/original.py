"""The original 2011 parsing-with-derivatives algorithm (Might et al.).

This module reproduces, as faithfully as practical in Python, the algorithm
whose performance problems the PLDI 2016 paper diagnoses (Section 2.6 and
Section 4).  It differs from :class:`repro.core.parse.DerivativeParser` in
exactly the three ways the paper's improvements address:

1. **Naive nullability fixed point** (Section 4.2's "before" state): every
   ``nullable?`` query re-traverses all nodes reachable from the queried node,
   re-evaluating each one, and repeats the traversal until no value changes —
   quadratic in the number of nodes, and nothing is remembered between
   queries.
2. **Compaction as a separate pass** (Section 4.3.3's "before" state): instead
   of compacting nodes as they are constructed, a full rewrite pass using the
   original 2011 rule set runs over the derived grammar after each token
   (and can be disabled entirely, matching the "without compaction"
   configuration whose two-seconds-for-31-lines behaviour the paper quotes).
3. **Nested hash-table memoization** (Section 4.4's "before" state): the
   ``derive`` memo is a global dictionary of per-node dictionaries keyed by
   token.

Everything else is shared with the improved implementation so that the
comparison isolates the algorithmic differences, exactly as the paper's
evaluation does by writing both parsers in Racket: the grammar
representation (``repro.core.languages`` nodes), Section 3's
``parse-null`` (:func:`repro.core.parse.parse_null`, called here with the
naive nullability below — the paper's improvements leave it unchanged),
and the tree answers ``parse``/``parse_trees``/``sample_parses``
(:class:`repro.core.parse.ForestParser`), so a rejected input of any
iterable reports a :class:`~repro.core.errors.ParseError` at
``len(tokens)``: the 2011 parser locates no exact failing token.

Like the improved parser, the traversals here are iterative (explicit
worklists rather than interpreter recursion) so no ``sys.setrecursionlimit``
escape hatch is needed; recursion-versus-iteration is a host-language detail
that the paper's comparison deliberately does not measure.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..core.compaction import CompactionConfig, Compactor, optimize_initial_grammar
from ..core.errors import GrammarError, ParseError
from ..core.forest import ForestNode
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
    Token,
    graph_size,
    reachable_nodes,
    token_value,
)
from ..core.metrics import Metrics
from ..core.parse import ForestParser, own_grammar, parse_null

__all__ = ["OriginalParser", "NaiveNullability"]


class NaiveNullability:
    """The quadratic, re-traversing nullability computation of Might et al. (2011).

    Each call recomputes nullability for every node reachable from ``root``:
    all nodes start as "not nullable", every node is re-evaluated in turn, and
    the whole sweep repeats whenever any node's value changed.  Nothing is
    cached between calls — this is precisely the behaviour the improved
    implementation's Figure 7 measurement is compared against.
    """

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics if metrics is not None else Metrics()

    def nullable(self, root: Language) -> bool:
        nodes = reachable_nodes(root)
        values: Dict[int, bool] = {id(node): False for node in nodes}
        changed = True
        while changed:
            changed = False
            for node in nodes:
                self.metrics.nullable_calls += 1
                new_value = self._evaluate(node, values)
                if new_value and not values[id(node)]:
                    values[id(node)] = True
                    changed = True
        return values[id(root)]

    def _evaluate(self, node: Language, values: Dict[int, bool]) -> bool:
        if isinstance(node, Epsilon):
            return True
        if isinstance(node, (Empty, Token)):
            return False
        if isinstance(node, Alt):
            return self._value(node.left, values) or self._value(node.right, values)
        if isinstance(node, Cat):
            return self._value(node.left, values) and self._value(node.right, values)
        if isinstance(node, (Reduce, Delta)):
            return self._value(node.lang, values)
        if isinstance(node, Ref):
            return self._value(node.target, values)
        raise GrammarError("cannot compute nullability of {!r}".format(node))

    @staticmethod
    def _value(child: Optional[Language], values: Dict[int, bool]) -> bool:
        if child is None:
            raise GrammarError("nullability of an incomplete node")
        return values.get(id(child), False)


class OriginalParser(ForestParser):
    """Parsing with derivatives as implemented by Might, Darais & Spiewak (2011)."""

    def __init__(
        self,
        grammar: Union[Language, Any],
        compaction: bool = True,
        metrics: Optional[Metrics] = None,
    ) -> None:
        # The between-token pass rewrites every grammar node the derived
        # language reaches, so the parser works on its own copy.
        grammar = own_grammar(grammar)

        self.metrics = metrics if metrics is not None else Metrics()
        self.compaction_enabled = compaction
        self.nullability = NaiveNullability(self.metrics)
        # The compactor is configured with exactly the 2011 rule set and is
        # used only by the between-token compaction pass, never inline.
        self._pass_compactor = Compactor(CompactionConfig.original_2011(), self.metrics)
        self.root = grammar
        # Nested hash tables: node -> {token -> derivative}.
        self._memo: Dict[Language, Dict[Any, Language]] = {}

    # ------------------------------------------------------------------ API
    def reset(self) -> None:
        """Clear the memoization tables (done before each benchmarked parse)."""
        self._memo = {}

    def grammar_size(self) -> int:
        """Number of nodes in the initial grammar."""
        return graph_size(self.root)

    def recognize(self, tokens: Iterable[Any]) -> bool:
        """True when the token sequence is in the grammar's language."""
        language = self._derive_sequence(tokens)
        if language is EMPTY or isinstance(language, Empty):
            return False
        return self.nullability.nullable(language)

    def _forest(self, tokens: Sequence[Any]) -> ForestNode:
        language = self._derive_sequence(tokens)
        if (
            language is EMPTY
            or isinstance(language, Empty)
            or not self.nullability.nullable(language)
        ):
            raise ParseError("parse failed", position=len(tokens), tokens=tokens)
        return parse_null(language, self.nullability.nullable, self.metrics)

    def derive_all(self, tokens: Iterable[Any]) -> Language:
        """Derive the grammar by every token (exposed for the benchmarks)."""
        return self._derive_sequence(tokens)

    # --------------------------------------------------------------- driving
    def _derive_sequence(self, tokens: Iterable[Any]) -> Language:
        language = self.root
        for tok in tokens:
            language = self.derive(language, tok)
            self.metrics.tokens_consumed += 1
            if self.compaction_enabled:
                language = self._compaction_pass(language)
            if language is EMPTY or isinstance(language, Empty):
                return EMPTY
        return language

    def _compaction_pass(self, language: Language) -> Language:
        """The separate between-token compaction traversal of the 2011 parser."""
        return optimize_initial_grammar(language, self._pass_compactor, max_passes=1)

    # ------------------------------------------------------------ derivative
    def derive(self, node: Language, token: Any) -> Language:
        """Memoized derivative with laziness-by-placeholder, no inline compaction.

        Because the 2011 algorithm *always* memoizes a placeholder before
        visiting a node's children (laziness is the cycle-breaking device,
        not an optimization), the derivative of the whole graph can be built
        iteratively in two phases: a discovery pass allocates and memoizes
        the skeleton of every needed derivative, then a wiring pass fills
        each skeleton's children from the memo table.  This reproduces the
        recursive formulation exactly — node counts included — without
        bounding the derivable graph depth by the interpreter stack.
        """
        # Phase 1: allocate (and memoize) a skeleton per reachable node.
        filled: List[Language] = []
        stack: List[Language] = [node]
        while stack:
            current = stack.pop()
            self.metrics.derive_calls += 1
            inner = self._memo.get(current)
            if inner is not None and token in inner:
                self.metrics.derive_cache_hits += 1
                continue
            self.metrics.derive_uncached += 1

            if isinstance(current, (Empty, Epsilon, Delta)):
                self._memoize(current, token, EMPTY)
            elif isinstance(current, Token):
                if current.matches(token):
                    result: Language = Epsilon((token_value(token),))
                    self.metrics.nodes_created += 1
                else:
                    result = EMPTY
                self._memoize(current, token, result)
            elif isinstance(current, Alt):
                placeholder: Language = Alt(None, None)
                self.metrics.nodes_created += 1
                self._memoize(current, token, placeholder)
                filled.append(current)
                stack.append(current.left)
                stack.append(current.right)
            elif isinstance(current, Cat):
                if not self.nullability.nullable(current.left):
                    placeholder = Cat(None, current.right)
                    self.metrics.nodes_created += 1
                    self._memoize(current, token, placeholder)
                    filled.append(current)
                    stack.append(current.left)
                else:
                    placeholder = Alt(None, None)
                    left_cat = Cat(None, current.right)
                    delta_cat = Cat(Delta(current.left), None)
                    self.metrics.nodes_created += 4
                    placeholder.left = left_cat
                    placeholder.right = delta_cat
                    self._memoize(current, token, placeholder)
                    filled.append(current)
                    stack.append(current.left)
                    stack.append(current.right)
            elif isinstance(current, Reduce):
                placeholder = Reduce(None, current.fn)
                self.metrics.nodes_created += 1
                self._memoize(current, token, placeholder)
                filled.append(current)
                stack.append(current.lang)
            elif isinstance(current, Ref):
                if current.target is None:
                    raise GrammarError(
                        "unresolved non-terminal <{}>".format(current.ref_name)
                    )
                placeholder = Ref(current.ref_name, None)
                self.metrics.nodes_created += 1
                self._memoize(current, token, placeholder)
                filled.append(current)
                stack.append(current.target)
            else:
                raise GrammarError(
                    "cannot derive unknown node type: {!r}".format(current)
                )

        # Phase 2: wire each skeleton's children from the memo table.
        for current in filled:
            skeleton = self._memo[current][token]
            if isinstance(current, Alt):
                skeleton.left = self._memo[current.left][token]
                skeleton.right = self._memo[current.right][token]
            elif isinstance(current, Cat):
                if isinstance(skeleton, Cat):  # non-nullable left child
                    skeleton.left = self._memo[current.left][token]
                else:  # the (Dc(L1) ◦ L2) ∪ (δ(L1) ◦ Dc(L2)) union
                    skeleton.left.left = self._memo[current.left][token]
                    skeleton.right.right = self._memo[current.right][token]
            elif isinstance(current, Reduce):
                skeleton.lang = self._memo[current.lang][token]
            else:  # Ref
                skeleton.target = self._memo[current.target][token]

        return self._memo[node][token]

    def _memoize(self, node: Language, token: Any, result: Language) -> Language:
        inner = self._memo.get(node)
        if inner is None:
            inner = {}
            self._memo[node] = inner
        inner[token] = result
        return result

    def memo_entry_distribution(self) -> Dict[int, int]:
        """entries-per-node histogram of the nested memo tables (Figure 10)."""
        distribution: Dict[int, int] = {}
        for inner in self._memo.values():
            if not inner:
                continue
            size = len(inner)
            distribution[size] = distribution.get(size, 0) + 1
        return distribution
