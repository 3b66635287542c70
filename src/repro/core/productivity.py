"""Productivity (non-emptiness) analysis of language nodes.

A language node is *productive* when it generates at least one word.  The
derivative parser uses it as the *emptiness analysis* that lets provably-dead
sub-grammars be collapsed to ``∅``: at the end of every derive step
(:mod:`repro.core.derivative`), which also makes a stream fail at exactly
the token that left its language empty, and in :mod:`repro.core.prune`.

Productivity is a least fixed point over the boolean lattice, exactly dual to
nullability (Section 2.4):

* ``∅`` is not productive, ``ε`` and tokens are productive,
* ``L1 ∪ L2`` is productive when either child is,
* ``L1 ◦ L2`` is productive when both children are,
* ``L ↪→ f`` and references follow their child,
* ``δ(L)`` is productive exactly when ``L`` is nullable (decided by the
  nullability analysis, not by recursing into ``L`` here).

Like nullability, the computation is a :class:`~repro.core.fixpoint`
declaration: :class:`ProductivityAnalysis` states the lattice and transfer
function, and the shared kernel supplies dependency tracking, tentative
values and final promotion.  Final values live on the node, in its
``prod_state`` field, next to ``null_state``; leaves are born final and the
smart constructors of :mod:`repro.core.compaction` settle every node they
build over final children (a nullable node is productive outright).  The
kernel runs at the end of a derive step, over the nodes the step left
undecided — whose dead children the deriver then cuts to ``∅`` — and in
the safety-net prune pass; a hand-built grammar is decided on first query.

A persistent value is sound for graphs mutated only by derivation and
pruning, because both are semantics-preserving on already-constructed
nodes: ``derive`` never changes the children of a finished node, and
:func:`repro.core.prune.prune_empty` only rewrites a child to ``∅`` when the
child already denoted the empty language.
"""

from __future__ import annotations

from typing import List, Optional

from .fixpoint import NOT_FINAL, FixpointAnalysis, FixpointSolver
from .languages import (
    Alt,
    Cat,
    Delta,
    Empty,
    Epsilon,
    Language,
    Reduce,
    Ref,
    Token,
    reachable_nodes,
)
from .metrics import Metrics
from .nullability import NullabilityAnalyzer

__all__ = ["ProductivityAnalysis", "ProductivityAnalyzer", "settle_graph"]


class ProductivityAnalysis(FixpointAnalysis):
    """Non-emptiness as a lattice declaration for the fixed-point kernel.

    Final values are read from and promoted into the ``prod_state`` node
    field; ``nullability`` decides the ``δ(L)`` case (``δ(L)`` is non-empty
    iff ``L`` is nullable).
    """

    def __init__(self, nullability: NullabilityAnalyzer) -> None:
        self.nullability = nullability

    # ------------------------------------------------------------- the lattice
    def bottom(self, node: Language) -> bool:
        """Start every node at the lattice bottom: not (yet) productive."""
        return False

    def dependencies(self, node: Language) -> tuple:
        """The children whose productivity this node's transfer reads."""
        if isinstance(node, (Alt, Cat)):
            return tuple(child for child in (node.left, node.right) if child is not None)
        if isinstance(node, Reduce):
            return (node.lang,) if node.lang is not None else ()
        if isinstance(node, Ref):
            return (node.target,) if node.target is not None else ()
        # Delta's productivity is decided by nullability, not by its child's
        # productivity, so it contributes no dependency edge.
        return ()

    def transfer(self, node: Language, get) -> bool:
        """One monotone productivity step for ``node``."""
        if isinstance(node, (Epsilon, Token)):
            return True
        if isinstance(node, Empty):
            return False
        if isinstance(node, Delta):
            return node.lang is not None and self.nullability.nullable(node.lang)
        if isinstance(node, Alt):
            return self._child(node.left, get) or self._child(node.right, get)
        if isinstance(node, Cat):
            return self._child(node.left, get) and self._child(node.right, get)
        if isinstance(node, Reduce):
            return self._child(node.lang, get)
        if isinstance(node, Ref):
            return self._child(node.target, get)
        raise TypeError("unknown language node type: {!r}".format(node))

    @staticmethod
    def _child(child: Optional[Language], get) -> bool:
        if child is None:
            return False
        return get(child)

    # --------------------------------------------------------- final promotion
    def final(self, node: Language):
        """Read the final productivity of ``node``, if it has one."""
        state = node.prod_state
        return NOT_FINAL if state is None else state

    def finalize(self, node: Language, value: bool) -> None:
        """Promote ``value`` into ``node``'s ``prod_state`` field."""
        node.prod_state = value


class ProductivityAnalyzer:
    """Decide whether a language node generates at least one word."""

    def __init__(
        self,
        nullability: Optional[NullabilityAnalyzer] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.nullability = nullability if nullability is not None else NullabilityAnalyzer()
        self.metrics = metrics if metrics is not None else self.nullability.metrics
        self._solver = FixpointSolver(ProductivityAnalysis(self.nullability), self.metrics)

    def productive(self, node: Language) -> bool:
        """True when the language of ``node`` is non-empty."""
        state = node.prod_state
        if state is not None:
            return state
        return self._solver.value(node)

    def is_empty(self, node: Language) -> bool:
        """True when the language of ``node`` contains no words at all."""
        return not self.productive(node)

    def settle(self, nodes: List[Language]) -> None:
        """Decide every undecided node in ``nodes`` with one fixed point."""
        if nodes:
            self._solver.solve(nodes)


def settle_graph(root: Language, nullability: Optional[NullabilityAnalyzer] = None) -> None:
    """Decide the nullability and productivity of every node under ``root``.

    Every reachable node is queried, not only the root: a node settled by a
    smart constructor may sit above a child nobody has decided yet.  The
    serve layer settles the seed its worker clones copy
    (:class:`repro.serve.cache.CacheEntry`), so a worker parser built at
    any time starts with no fixed point left to solve.
    """
    nullability = nullability if nullability is not None else NullabilityAnalyzer()
    productivity = ProductivityAnalyzer(nullability)
    for node in reachable_nodes(root):
        nullability.nullable(node)
        productivity.productive(node)
