"""The unified fixed-point analysis kernel (Section 4.2, engine-agnostic).

Every acceleration in the paper's Section 4.2 — and every grammar analysis in
this repository — is an instance of one algorithm: a *least fixed point over a
join-semilattice, solved with a dependency-tracked worklist, whose results are
tentative while the fixed point is running and promoted to final when it
completes*.  Before this module existed the repository implemented that
algorithm four separate times (nullability, productivity, the classical
nullable/FIRST/FOLLOW computations, and the regex recognizer's nullability);
now each of those is a :class:`FixpointAnalysis` declaration solved by the
one :class:`FixpointSolver` below, and the grammar's nullability and
productivity share one declaration over one chain
(:mod:`repro.core.nullability`).

Both loops run inside :meth:`FixpointSolver.solve`.  The CFG and regex
analyses declare a bottom, dependencies and a transfer function (~30 lines)
for the generic loop.  The grammar's emptiness chain, solved at the end of
every derive step, supplies its own :attr:`FixpointAnalysis.loop`: the same
worklist specialised to :class:`~repro.core.languages.Language` nodes.

The solver's contract, in the paper's vocabulary:

* **Dependency tracking (Kildall).**  A discovery sweep records, for every
  node whose value is not yet final, which other nodes read it.  During the
  fixed point only the *dependents* of a node whose value grew are revisited,
  so the work is proportional to the number of actual value changes rather
  than to (nodes × passes) as in naive iterate-to-convergence.

* **Tentative → final promotion.**  While a solve is running, values are
  *assumed* (tentative, stored in a per-solve table).  The moment the
  worklist drains, the least fixed point over the discovered region is
  complete, so every tentative value is in fact exact; the solver hands each
  one to :meth:`FixpointAnalysis.finalize`, which typically caches it
  somewhere O(1)-reachable (a node field, an analyzer dictionary).  Later
  queries — e.g. the nullability probes issued by every subsequent
  ``derive`` — never re-enter the solver for a finalized node.  Tentative
  values live only in the solve's own table, so "assumed during the current
  fixed point" and "final" can never be confused across runs.

The solver itself is **iterative** (explicit stacks and deques throughout):
analyses routinely run over derivative graphs whose depth is proportional to
the input length, far beyond the interpreter recursion limit.

Writing a new analysis
----------------------

Subclass :class:`FixpointAnalysis` and declare the lattice::

    class Reachability(FixpointAnalysis):
        '''Which token kinds can begin a word of each node's language.'''

        def bottom(self, node):
            return frozenset()

        def dependencies(self, node):
            return node.children()

        def transfer(self, node, get):
            if isinstance(node, Token):
                return frozenset([node.kind])
            ...  # join the children's values via get(child)

    solver = FixpointSolver(Reachability())
    solver.value(root)

``transfer`` must be *monotone* in its inputs (values only ever grow along
the lattice order) and values must support ``!=``; under those two conditions
the worklist terminates at the unique least fixed point.  Override
:meth:`FixpointAnalysis.final`/:meth:`~FixpointAnalysis.finalize` to persist
results, and :meth:`~FixpointAnalysis.key` when nodes are not cheaply
hashable (e.g. structurally-hashed regex nodes key by ``id``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional

from .metrics import Metrics

__all__ = ["NOT_FINAL", "FixpointAnalysis", "FixpointSolver"]


class _NotFinal:
    """Sentinel: the analysis holds no final value for a node."""

    _instance: Optional["_NotFinal"] = None

    def __new__(cls) -> "_NotFinal":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<NOT_FINAL>"


#: Returned by :meth:`FixpointAnalysis.final` when no final value is cached.
NOT_FINAL = _NotFinal()


class FixpointAnalysis:
    """One least-fixed-point analysis, declared as lattice + transfer function.

    Subclasses override the methods below; the defaults give a non-caching
    analysis over identity-hashable nodes.  See the module docstring for a
    worked example.
    """

    # ------------------------------------------------------------- the lattice
    def bottom(self, node: Any) -> Any:
        """The least lattice value, used to seed every discovered node."""
        raise NotImplementedError

    def dependencies(self, node: Any) -> Iterable[Any]:
        """The nodes whose values :meth:`transfer` reads for ``node``.

        Must be consistent with ``transfer``: every node whose value the
        transfer function consults has to appear here, or a change in it
        will not re-trigger the node's evaluation.
        """
        raise NotImplementedError

    def transfer(self, node: Any, get: Any) -> Any:
        """Recompute ``node``'s value, reading other nodes through ``get``.

        ``get(other)`` returns ``other``'s final value when one exists, its
        tentative value while the solve is running, and ``bottom(other)``
        otherwise.  The result must be monotone in those inputs.
        """
        raise NotImplementedError

    # --------------------------------------------------------- final promotion
    def final(self, node: Any) -> Any:
        """The cached final value of ``node``, or :data:`NOT_FINAL`.

        Nodes with final values terminate the discovery sweep: the solver
        neither revisits them nor descends into their dependencies.
        """
        return NOT_FINAL

    def finalize(self, node: Any, value: Any) -> None:
        """Promote a tentative value to final (the fixed point completed)."""

    # ------------------------------------------------------------------ hooks
    def key(self, node: Any) -> Any:
        """The dictionary key identifying ``node`` during a solve.

        Defaults to the node itself (fine for identity-hashed
        :class:`~repro.core.languages.Language` nodes and for plain strings).
        Analyses over structurally-hashed nodes whose hash recurses — deep
        regex ASTs — override this with ``id``; the solver holds strong
        references to every discovered node, so ids are stable for the
        duration of a solve.
        """
        return node

    #: ``loop(roots, metrics)``: a worklist specialised to the analysis'
    #: nodes, run by :meth:`FixpointSolver.solve` in place of the generic
    #: one and of every hook above.  It counts into ``metrics``.
    loop: Optional[Callable[[Iterable[Any], Metrics], Dict[Any, Any]]] = None


class FixpointSolver:
    """Dependency-tracked worklist solver executing a :class:`FixpointAnalysis`.

    One solver may be queried repeatedly; each :meth:`solve`/:meth:`value`
    call runs at most one fixed point over the not-yet-final region reachable
    from the queried roots, and promotes everything it computed to final via
    the analysis' :meth:`~FixpointAnalysis.finalize` hook.

    ``metrics.fixpoint_node_evaluations`` counts transfer-function
    evaluations and ``metrics.fixpoint_solves`` counts completed fixed
    points, across every analysis sharing the :class:`Metrics` instance.
    """

    def __init__(self, analysis: FixpointAnalysis, metrics: Optional[Metrics] = None) -> None:
        self.analysis = analysis
        self.metrics = metrics if metrics is not None else Metrics()

    # ------------------------------------------------------------------ API
    def value(self, root: Any) -> Any:
        """Solve (if needed) and return the final value of ``root``."""
        analysis = self.analysis
        cached = analysis.final(root)
        if cached is not NOT_FINAL:
            return cached
        return self.solve([root])[analysis.key(root)]

    def solve(self, roots: Iterable[Any]) -> Dict[Any, Any]:
        """Run one fixed point over the unknown region reachable from ``roots``.

        Returns the value table for every node the solve covered (keyed by
        :meth:`FixpointAnalysis.key`), including roots that were already
        final.  The table is a fresh dictionary owned by the caller.
        """
        analysis = self.analysis
        if analysis.loop is not None:
            return analysis.loop(roots, self.metrics)
        final_of = analysis.final
        dependencies = analysis.dependencies
        # The default key is the node itself: skip the call, not the meaning.
        key_of = None if type(analysis).key is FixpointAnalysis.key else analysis.key

        # Discovery sweep: every reachable node without a final value,
        # recording reverse dependencies (child -> dependents) along the way.
        # ``pending`` holds strong references, which is what makes id-based
        # keys (see FixpointAnalysis.key) stable for the run.  Only nodes
        # that are not final are ever pushed, and discovery evaluates
        # nothing, so a popped node is still not final.
        pending: List[Any] = []
        dependents: Dict[Any, List[Any]] = {}
        discovered: set = set()
        values: Dict[Any, Any] = {}
        stack: List[Any] = []
        for root in roots:
            cached = final_of(root)
            if cached is NOT_FINAL:
                stack.append(root)
            else:
                values[root if key_of is None else key_of(root)] = cached
        while stack:
            node = stack.pop()
            node_key = node if key_of is None else key_of(node)
            if node_key in discovered:
                continue
            discovered.add(node_key)
            pending.append(node)
            for child in dependencies(node):
                # A final child never changes, so it needs no dependents.
                if final_of(child) is NOT_FINAL:
                    child_key = child if key_of is None else key_of(child)
                    dependents.setdefault(child_key, []).append(node)
                    if child_key not in discovered:
                        stack.append(child)

        if not pending:
            return values

        # Tentative phase: seed every unknown node at lattice bottom and
        # propagate monotonically until the worklist drains.
        bottom = analysis.bottom
        if key_of is None:
            for node in pending:
                values[node] = bottom(node)
        else:
            for node in pending:
                values[key_of(node)] = bottom(node)

        def get(other: Any) -> Any:
            cached = final_of(other)
            if cached is not NOT_FINAL:
                return cached
            other_key = other if key_of is None else key_of(other)
            if other_key in values:
                return values[other_key]
            return bottom(other)

        # Seeded in reverse discovery order: the sweep discovers a node
        # before its children, so children are evaluated first and most
        # parents see their children's grown values on their first visit.
        transfer = analysis.transfer
        worklist = deque(reversed(pending))
        in_worklist = set(discovered)
        evaluations = 0
        while worklist:
            node = worklist.popleft()
            node_key = node if key_of is None else key_of(node)
            in_worklist.discard(node_key)
            evaluations += 1
            new_value = transfer(node, get)
            if new_value != values[node_key]:
                values[node_key] = new_value
                for parent in dependents.get(node_key, ()):
                    parent_key = parent if key_of is None else key_of(parent)
                    if parent_key not in in_worklist:
                        worklist.append(parent)
                        in_worklist.add(parent_key)

        # Promotion phase: the worklist drained, so the fixed point over the
        # discovered region is complete and every tentative value is exact.
        finalize = analysis.finalize
        for node in pending:
            finalize(node, values[node if key_of is None else key_of(node)])
        self.metrics.fixpoint_node_evaluations += evaluations
        self.metrics.fixpoint_solves += 1
        return values
