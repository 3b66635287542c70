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
That mechanism is the kernel of :mod:`repro.core.fixpoint`.  A solve ends
every derive step that leaves a node undecided, so :class:`NullabilityAnalysis`
hands the kernel a worklist specialised to grammar nodes, with the equations
above written in (bottom DEAD); :class:`NullabilityAnalyzer` wraps a solver
over it.  Every evaluation is counted in ``Metrics.nullable_calls``, the
quantity Figure 7 compares with the original implementation; it includes the
emptiness half, which the 2011 parser never computed.

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

from collections import defaultdict, deque
from typing import Dict, Iterable, Optional

from .fixpoint import FixpointAnalysis, FixpointSolver
from .languages import (
    DEAD,
    LIVE,
    NULLABLE,
    Alt,
    Cat,
    Delta,
    Language,
    Reduce,
    Ref,
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

    It supplies the kernel's worklist as :meth:`loop`, specialised to
    :class:`Language` nodes, and promotes into their ``state`` fields.
    """

    def loop(self, roots: Iterable[Language], metrics: Metrics) -> Dict[Language, int]:
        """Decide every undecided node reachable from ``roots`` in one fixed point.

        The generic loop's discovery order, worklist order and evaluation
        count, with the module docstring's equations written in: it
        dispatches on the node's class, reads children from the node
        fields, and keeps the tentative states in ``values``, whose keys are
        the discovered set.  Leaves are born final, so only composites
        enter it.  Returns ``values``, the states it promoted.

        Precondition: every root is undecided (``state`` None).  Both
        callers, :meth:`NullabilityAnalyzer.state` and
        :meth:`NullabilityAnalyzer.settle`, pass only such roots, so the
        roots are taken as given.
        """
        values: Dict[Language, int] = {}
        dependents: Dict[Language, list] = defaultdict(list)
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in values:
                continue
            values[node] = DEAD
            cls = node.__class__
            if cls is Reduce or cls is Delta:
                children: tuple = (node.lang,)
            elif cls is Cat or cls is Alt:
                children = (node.left, node.right)
            elif cls is Ref:
                children = (node.target,)
            else:
                raise TypeError("unknown language node type: {!r}".format(node))
            for child in children:
                if child is None:
                    raise ValueError("nullability of a node with an unset child: {!r}".format(node))
                # A final child never changes, so it needs no dependents.
                if child.state is None:
                    dependents[child].append(node)
                    if child not in values:
                        stack.append(child)
        if not values:
            return values

        # Seeded in reverse discovery order, so children are evaluated first.
        worklist = deque(reversed(values))
        pop, push = worklist.popleft, worklist.append
        in_worklist = set(values)
        evaluations = len(values)  # plus one per re-queued node below
        while worklist:
            node = pop()
            in_worklist.discard(node)
            cls = node.__class__
            if cls is Cat or cls is Alt:
                left, right = node.left, node.right
                state, other = left.state, right.state
                if state is None:
                    state = values[left]
                if other is None:
                    other = values[right]
                if (other > state) is (cls is Alt):  # ∪ is the max, ◦ the min
                    state = other
            else:
                child = node.target if cls is Ref else node.lang
                state = child.state
                if state is None:
                    state = values[child]
                if cls is Delta and state != NULLABLE:
                    state = DEAD
            if state != values[node]:
                values[node] = state
                for parent in dependents.get(node, ()):
                    if parent not in in_worklist:
                        push(parent)
                        in_worklist.add(parent)
                        evaluations += 1

        # The worklist drained: every tentative state is exact.
        for node, state in values.items():
            node.state = state
        metrics.fixpoint_node_evaluations += evaluations
        metrics.nullable_calls += evaluations
        metrics.fixpoint_solves += 1
        return values


class NullabilityAnalyzer:
    """Decide a node's state with dependency tracking and final caching."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics if metrics is not None else Metrics()
        self._solver = FixpointSolver(NullabilityAnalysis(), self.metrics)

    # ------------------------------------------------------------------ API
    def state(self, node: Language) -> int:
        """The final ``DEAD`` / ``LIVE`` / ``NULLABLE`` state of ``node``."""
        state = node.state
        if state is None:
            self.metrics.nullable_fixed_points += 1
            self._solver.solve((node,))
            state = node.state
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

