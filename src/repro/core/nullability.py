"""Nullability and emptiness (``δ(L)``, Figure 3) as one least fixed point.

Whether a language accepts the empty word is needed by the derivative of a
concatenation (Figure 2) and by ``parse-null``.  Whether it accepts any word
at all — its *productivity* — is the emptiness analysis that lets the
deriver and :mod:`repro.core.prune` collapse provably-dead sub-grammars to
``∅``, so a stream fails at exactly the token that emptied its language.

A nullable language is never empty, so both answers fit in one value on the
chain ``DEAD < LIVE < NULLABLE``, stored in the node's ``state`` field:

* ``∅`` is DEAD, a token is LIVE and ``ε`` is NULLABLE,
* ``L1 ∪ L2`` is the max of its children and ``L1 ◦ L2`` the min,
* ``L ↪→ f`` and references copy their child,
* ``δ(L)`` is NULLABLE when ``L`` is, and DEAD otherwise.

Every equation is monotone, so one least fixed point over the chain gives
exactly the pair of booleans the two classical analyses give.  Because
grammars are cyclic graphs, it is a least-fixed-point problem (Sections
2.4 and 2.5 of the paper).

The original 2011 implementation recomputes nullability by repeatedly
re-traversing every reachable node until nothing changes — quadratic in the
number of nodes (Section 4.2).  The paper's improved algorithm tracks
dependencies between nodes Kildall-style, so only the nodes affected by a
change are revisited, and promotes tentative values to final once a fixed
point completes, so later queries from later ``derive`` calls reuse them.
That mechanism is the unified kernel of :mod:`repro.core.fixpoint`, so this
module is a declaration: :class:`NullabilityAnalysis` states the chain
(bottom DEAD), the dependencies (a node's children) and the equations above.
:class:`NullabilityAnalyzer` wraps a solver over it.  Every evaluation is
counted in ``Metrics.nullable_calls``, the quantity Figure 7 compares with
the original implementation; it includes the emptiness half, which the 2011
parser never computed.

Most nodes never reach the solver.  Leaves are born final, and the smart
constructors of :mod:`repro.core.compaction` settle every node they build
over final children, so a derived node is final from birth unless it sits
over a cyclic placeholder.  The kernel runs in three places:

* the end of a derive step, where the deriver solves once over the nodes
  the step left undecided (:mod:`repro.core.derivative`);
* the construction of an engine, which settles its grammar's live nodes
  once while cutting their dead branches (:func:`repro.core.prune.prune_empty`);
* a query on a node nothing has decided yet — in practice a grammar
  assembled by hand with the plain constructors, solved on first use.

A final value stays exact because derivation never changes the children of
a finished node, and a dead-branch cut only points a DEAD child at ``∅``,
which is DEAD too.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .fixpoint import NOT_FINAL, FixpointAnalysis, FixpointSolver
from .languages import (
    DEAD,
    LIVE,
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
    "DEAD",
    "LIVE",
    "NULLABLE",
    "NullabilityAnalysis",
    "NullabilityAnalyzer",
]


class NullabilityAnalysis(FixpointAnalysis):
    """The ``DEAD < LIVE < NULLABLE`` chain as a kernel declaration.

    Final values live in the ``state`` field of the nodes themselves (the
    Section 4.2 promotion, expressed as the kernel's ``finalize`` hook).
    """

    def __init__(self, metrics: Metrics) -> None:
        self.metrics = metrics

    # ------------------------------------------------------------- the lattice
    def bottom(self, node: Language) -> int:
        """Start every node at the bottom of the chain: DEAD."""
        return DEAD

    def dependencies(self, node: Language) -> tuple:
        """The children whose state the node's own state depends on."""
        return node.children()

    def transfer(self, node: Language, get) -> int:
        """Evaluate the module docstring's equations with current values."""
        if isinstance(node, Alt):
            return max(self._child(node.left, get), self._child(node.right, get))
        if isinstance(node, Cat):
            return min(self._child(node.left, get), self._child(node.right, get))
        if isinstance(node, Reduce):
            return self._child(node.lang, get)
        if isinstance(node, Ref):
            return self._child(node.target, get)
        if isinstance(node, Delta):
            return NULLABLE if self._child(node.lang, get) == NULLABLE else DEAD
        if isinstance(node, Epsilon):
            return NULLABLE
        if isinstance(node, Token):
            return LIVE
        if isinstance(node, Empty):
            return DEAD
        raise TypeError("unknown language node type: {!r}".format(node))

    @staticmethod
    def _child(child: Optional[Language], get) -> int:
        if child is None:
            raise ValueError(
                "nullability queried on a node with an unset child; "
                "the grammar (or a derivative placeholder) is incomplete"
            )
        return get(child)

    # --------------------------------------------------------- final promotion
    def final(self, node: Language):
        """Read a previously promoted state, if any."""
        state = node.state
        return NOT_FINAL if state is None else state

    def finalize(self, node: Language, value: int) -> None:
        """Promote a fixed-point value into the node's ``state`` field."""
        node.state = value

    # ------------------------------------------------------------------ hooks
    def on_evaluate(self, node: Language) -> None:
        """Count one transfer evaluation toward the Figure 7 metric."""
        self.metrics.nullable_calls += 1


class NullabilityAnalyzer:
    """Decide a node's state with dependency tracking and final caching."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics if metrics is not None else Metrics()
        self._solver = FixpointSolver(NullabilityAnalysis(self.metrics), self.metrics)

    # ------------------------------------------------------------------ API
    def state(self, node: Language) -> int:
        """The final ``DEAD`` / ``LIVE`` / ``NULLABLE`` state of ``node``."""
        state = node.state
        if state is None:
            self.metrics.nullable_fixed_points += 1
            return self._solver.value(node)
        self.metrics.nullable_cache_hits += 1
        return state

    def nullable(self, node: Language) -> bool:
        """True when the language of ``node`` contains the empty word."""
        return self.state(node) == NULLABLE

    def productive(self, node: Language) -> bool:
        """True when the language of ``node`` contains at least one word."""
        return self.state(node) != DEAD

    def settle(self, nodes: Iterable[Language]) -> None:
        """Decide every undecided node in ``nodes`` with one fixed point."""
        undecided = [node for node in nodes if node.state is None]
        if undecided:
            self._solver.solve(undecided)

