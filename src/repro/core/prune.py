"""Pruning of semantically-empty branches from derived grammars.

Structural compaction (Section 4.3) removes a dead alternative only when it is
*literally* the ``∅`` node.  But derivatives of cyclic grammars routinely
produce sub-graphs that denote the empty language without being the ``∅``
node — for example, after a statement has ended, the derivative of a
left-recursive expression non-terminal is a small cyclic core none of whose
token leaves can ever match again.  Such "zombie" cores, left in place, are
re-derived on every subsequent token and, worse, every failed context leaves
one behind, so the live grammar grows linearly and overall parsing degrades
to quadratic.

Racket implementations of parsing with derivatives (including the ``derp``
family this paper builds on) handle this with an *emptiness* fixed point used
during compaction: a child that provably generates no words is replaced by
``∅`` so the ordinary ``∅``-rules can collapse its parents.

**Zombies die at birth.**  Every zombie is built by the derive step that
makes it dead, and that step decides it: :meth:`Deriver.derive
<repro.core.derivative.Deriver.derive>` settles, when it ends, every node it
built undecided, and :func:`cut_dead_children` points their dead children at
``∅``.  The smart constructors treat an already-dead child as ``∅``.  So the
branch is cut in the step that builds it and never derived again.

**The grammar's own dead branches are cut once, at construction.**  No
derive step builds the initial grammar, so no step can cut its dead
branches.  :func:`prune_empty` does: it decides the state of every node
reachable from a grammar — without descending into ``δ`` histories except
where a ``δ`` node's own state needs it — and runs
:func:`cut_dead_children` over all of them.  Both engines call it once on
their optimized root (:class:`~repro.core.parse.DerivativeParser` when
compaction is on, :class:`~repro.compile.automaton.GrammarTable` always);
after that every dead branch is cut by the step that builds it, so no pass
runs during a parse.

The emptiness computation itself is not implemented here: it is the one
analysis of :mod:`repro.core.nullability`, whose ``DEAD < LIVE < NULLABLE``
states live on the nodes.  :func:`prune_empty` settles, through the
engine's analyzer, every live node still undecided — not the root alone: a
root settled by a smart constructor would stop the solver's sweep before a
dead cyclic core below it.  So after the construction cut every live node
of the grammar is decided, and a :func:`~repro.core.languages.clone_graph`
copy carries the final states.  The rewrite keeps every state exact,
because ``∅`` is DEAD like the child it replaces.

The reachability sweep (:func:`live_nodes`) and the kernel's solve both run
on explicit worklists — like every other traversal in the core, they must
handle grammars whose depth is proportional to the input length without
leaning on the interpreter call stack.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .languages import DEAD, EMPTY, Alt, Cat, Delta, Empty, Language, Reduce, Ref
from .nullability import NullabilityAnalyzer

__all__ = ["prune_empty", "cut_dead_children", "live_nodes"]


def live_nodes(root: Language) -> List[Language]:
    """Nodes reachable from ``root`` without descending into ``δ`` children.

    ``derive`` never recurses into the language under a ``δ`` node (its
    derivative is ``∅`` outright), so for the purposes of per-token work the
    "live" grammar excludes that history; the parse data it carries is only
    visited once more, by ``parse-null`` at the very end.
    """
    seen: set[int] = set()
    order: List[Language] = []
    stack: List[Language] = [root]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        if isinstance(node, Delta):
            continue
        for child in node.children():
            if child is not None and id(child) not in seen:
                stack.append(child)
    return order


def cut_dead_children(nodes: Iterable[Language]) -> int:
    """Point every dead child of ``nodes`` at ``∅``; return how many moved.

    A child is dead when its state is final and DEAD.  A ``δ`` keeps its
    child: ``δ(L)`` of a dead ``L`` is dead itself, and is cut from its own
    parent.  The rewrite keeps every state exact, because ``∅`` is DEAD
    like the child it replaces.
    """

    rewrites = 0
    for node in nodes:
        cls = node.__class__
        if cls is Alt or cls is Cat:
            child = node.left
            if child.state == DEAD and child.__class__ is not Empty:
                node.left = EMPTY
                rewrites += 1
            child = node.right
            if child.state == DEAD and child.__class__ is not Empty:
                node.right = EMPTY
                rewrites += 1
        elif cls is Reduce:
            child = node.lang
            if child.state == DEAD and child.__class__ is not Empty:
                node.lang = EMPTY
                rewrites += 1
        elif cls is Ref:
            child = node.target
            if child.state == DEAD and child.__class__ is not Empty:
                node.target = EMPTY
                rewrites += 1
    return rewrites


def prune_empty(
    root: Language, nullability: Optional[NullabilityAnalyzer] = None
) -> Tuple[Language, int]:
    """Replace provably-empty children with ``∅`` throughout the live grammar.

    Returns ``(new_root, live_size)`` where ``new_root`` is ``∅`` when the
    whole grammar is empty (it generates no word) and
    ``live_size`` is the number of live nodes remaining after the rewrite.
    The rewrite mutates child pointers in place, so every memoized reference
    to an existing node stays valid; no new nodes are created.  The solve
    and the rewrites are counted in ``nullability.metrics``.
    """
    nullability = nullability if nullability is not None else NullabilityAnalyzer()
    nodes = live_nodes(root)
    nullability.settle(nodes)
    nullability.metrics.compaction_rewrites += cut_dead_children(nodes)

    if root.state == DEAD:
        return EMPTY, 1
    return root, len(live_nodes(root))
