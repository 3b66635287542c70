"""Nullability (``δ(L)``, Figure 3) as an accelerated least fixed point.

Whether a language accepts the empty word is needed by the derivative of a
concatenation (Figure 2) and by ``parse-null``.  Because grammars are cyclic
graphs, nullability is a least-fixed-point problem over the boolean lattice
(Section 2.4 / 2.5 of the paper).

The original 2011 implementation recomputes nullability by repeatedly
re-traversing every reachable node until nothing changes — quadratic in the
number of nodes (Section 4.2).  The paper's improved algorithm:

* tracks dependencies between nodes Kildall-style, so only the nodes affected
  by a change are revisited, and
* distinguishes *assumed-not-nullable* (still tentative, inside an unfinished
  fixed point) from *definitely-not-nullable* (final), promoting the former to
  the latter once a fixed point completes, so later nullability queries from
  later ``derive`` calls can reuse the answers.

That mechanism — dependency tracking, tentative values, final promotion,
generation labels — is exactly what the unified kernel in
:mod:`repro.core.fixpoint` provides for *every* analysis, so this module is
now a declaration, not an algorithm: :class:`NullabilityAnalysis` states the
boolean lattice (bottom ``False``), the dependency function (a node's
relevant children) and the transfer function (Figure 3's equations), and
stores final values in the ``null_state`` node field so later queries are
O(1).  :class:`NullabilityAnalyzer` wraps a solver over that declaration
behind the same public API as before.  The number of node evaluations is
recorded in ``Metrics.nullable_calls`` — the quantity compared against the
original implementation in Figure 7.

Most nodes never reach the solver.  Leaves are born final, and the smart
constructors of :mod:`repro.core.compaction` settle every node they build
whose children are already final (``∪`` is the or of its children, ``◦``
the and, ``↪`` and ``δ`` copy their child), so a derived node is final from
birth unless it sits over a cyclic placeholder.  The kernel therefore only
runs on the regions that really need a fixed point, and it has two
triggers:

* the end of a derive step, where the deriver solves once over the nodes
  the step left undecided — the placeholders it filled in place on a cycle
  and the nodes built over them (:mod:`repro.core.derivative`);
* a query on a node nothing has decided yet — in practice a grammar
  assembled by hand with the plain constructors, solved on first use.

Promotion also records that a nullable node is productive, so the
productivity solve that follows skips it.
"""

from __future__ import annotations

from typing import List, Optional

from .fixpoint import NOT_FINAL, FixpointAnalysis, FixpointSolver
from .languages import (
    DEFINITELY_NOT_NULLABLE,
    NULLABLE,
    Alt,
    Cat,
    Delta,
    Empty,
    Epsilon,
    Language,
    Reduce,
    Ref,
    Token,
)
from .metrics import Metrics

__all__ = [
    "NULLABLE",
    "DEFINITELY_NOT_NULLABLE",
    "NullabilityAnalysis",
    "NullabilityAnalyzer",
]


class NullabilityAnalysis(FixpointAnalysis):
    """δ as a lattice declaration for the unified fixed-point kernel.

    Boolean lattice, bottom ``False`` (assumed-not-nullable); transfer
    implements Figure 3; final values live in the ``null_state`` field of the
    nodes themselves (the Section 4.2 promotion, expressed as the kernel's
    ``finalize`` hook).
    """

    def __init__(self, metrics: Metrics) -> None:
        self.metrics = metrics

    # ------------------------------------------------------------- the lattice
    def bottom(self, node: Language) -> bool:
        """Start every node at the lattice bottom: not (yet) nullable."""
        return False

    def dependencies(self, node: Language) -> tuple:
        """Children whose nullability the node's own nullability depends on."""
        if isinstance(node, (Alt, Cat)):
            children = []
            if node.left is not None:
                children.append(node.left)
            if node.right is not None:
                children.append(node.right)
            return tuple(children)
        if isinstance(node, (Reduce, Delta)):
            return (node.lang,) if node.lang is not None else ()
        if isinstance(node, Ref):
            return (node.target,) if node.target is not None else ()
        return ()

    def transfer(self, node: Language, get) -> bool:
        """Evaluate δ for ``node`` using current (possibly tentative) values."""
        if isinstance(node, Epsilon):
            return True
        if isinstance(node, (Empty, Token)):
            return False
        if isinstance(node, Alt):
            return self._child(node.left, get) or self._child(node.right, get)
        if isinstance(node, Cat):
            return self._child(node.left, get) and self._child(node.right, get)
        if isinstance(node, (Reduce, Delta)):
            return self._child(node.lang, get)
        if isinstance(node, Ref):
            return self._child(node.target, get)
        raise TypeError("unknown language node type: {!r}".format(node))

    @staticmethod
    def _child(child: Optional[Language], get) -> bool:
        if child is None:
            raise ValueError(
                "nullability queried on a node with an unset child; "
                "the grammar (or a derivative placeholder) is incomplete"
            )
        return get(child)

    # --------------------------------------------------------- final promotion
    def final(self, node: Language):
        """Read a previously promoted per-node result, if any."""
        state = node.null_state
        if state == NULLABLE:
            return True
        if state == DEFINITELY_NOT_NULLABLE:
            return False
        return NOT_FINAL

    def finalize(self, node: Language, value: bool) -> None:
        """Promote a fixed-point value into the node's cache fields."""
        # Nodes still at False are promoted from assumed- to
        # definitely-not-nullable; this is what lets later derive steps
        # answer nullability in O(1).  A nullable node is productive (it
        # has the empty word), which spares the productivity solve it.
        if value:
            node.null_state = NULLABLE
            node.prod_state = True
        else:
            node.null_state = DEFINITELY_NOT_NULLABLE

    # ------------------------------------------------------------------ hooks
    def on_evaluate(self, node: Language) -> None:
        """Count one transfer evaluation toward the Figure 7 metric."""
        self.metrics.nullable_calls += 1


class NullabilityAnalyzer:
    """Compute ``δ(L)`` with dependency tracking and final-value caching."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics if metrics is not None else Metrics()
        self._solver = FixpointSolver(NullabilityAnalysis(self.metrics), self.metrics)

    # ------------------------------------------------------------------ API
    def nullable(self, node: Language) -> bool:
        """Return True when the language of ``node`` contains the empty word."""
        state = node.null_state
        if state == NULLABLE:
            self.metrics.nullable_cache_hits += 1
            return True
        if state == DEFINITELY_NOT_NULLABLE:
            self.metrics.nullable_cache_hits += 1
            return False
        self.metrics.nullable_fixed_points += 1
        return self._solver.value(node)

    def settle(self, nodes: List[Language]) -> None:
        """Decide every undecided node in ``nodes`` with one fixed point."""
        if nodes:
            self._solver.solve(nodes)

    def invalidate(self, node: Language) -> None:
        """Drop the cached nullability of a single node (used by tests)."""
        node.null_state = None
