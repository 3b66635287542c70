"""Shared parse forests with explicit ambiguity nodes.

Section 3 of the paper notes that its cubic bound — like the cubic bounds of
GLR and Earley — assumes parse results are represented as a *graph* with
ambiguity nodes rather than as an explicitly enumerated set of trees (the
grammar ``S → S S | a | b`` has exponentially many distinct parses, but they
share structure).  This module provides that representation:

* :class:`ForestEmpty` — no parses,
* :class:`ForestLeaf` — one or more finished trees,
* :class:`ForestPair` — the cross product of two forests (from ``◦`` nodes),
* :class:`ForestMap` — a reduction function applied to every tree,
* :class:`ForestAmb` — an ambiguity node (union of alternatives),
* :class:`ForestRef` — an indirection used to tie cyclic forests together.

Forests are produced by ``parse_null`` (:mod:`repro.core.parse`).  This
module holds the node types and two recursion-safe tree utilities
(:func:`trees_equal`, :func:`tree_fingerprint`); it does not read forests
itself.  :func:`count_trees`, :func:`first_tree` and :func:`iter_trees` are
thin wrappers over :class:`repro.core.forest_query.ForestQuery`, the one
reader: a count pass, one count-guided descent that builds the tree of any
derivation number, and a lazy k-best walk.  Forests from long inputs are as
deep as the input (a 100 000-token parse yields a forest nested 100 000
levels deep), so every reader runs on explicit stacks, never the interpreter
call stack.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "ForestNode",
    "ForestEmpty",
    "ForestLeaf",
    "ForestPair",
    "ForestMap",
    "ForestAmb",
    "ForestRef",
    "FOREST_EMPTY",
    "iter_trees",
    "count_trees",
    "first_tree",
    "trees_equal",
    "tree_fingerprint",
]


def trees_equal(a: Any, b: Any) -> bool:
    """Structural equality of parse trees, safe for arbitrarily deep nesting.

    Parse trees from long inputs are tuples nested as deep as the input, and
    comparing those with ``==`` recurses in C — a ``RecursionError`` the
    iterative engine must not reintroduce through its deduplication checks.
    Tuple spines are therefore compared with an explicit stack; non-tuple
    leaves fall back to ``==``, with a recursion blow-up in an exotic
    user-defined tree type conservatively treated as "not equal" (at worst a
    duplicate tree is reported twice).
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, tuple) and isinstance(y, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
            continue
        try:
            if x != y:
                return False
        except RecursionError:
            return False
    return True


def tree_fingerprint(
    tree: Any, memo: Optional[Dict[int, Tuple[tuple, int]]] = None
) -> Optional[int]:
    """Structural hash of a parse tree, iterative and recursion-safe.

    Used to bucket trees for near-constant-time deduplication: equal trees
    always fingerprint equally, and collisions are resolved by
    :func:`trees_equal` within a bucket, so deduplication stays exact.
    Tuple spines are hashed on an explicit stack (trees nest as deep as the
    input); shared sub-tuples are memoized by identity so DAG-shaped trees
    do not blow up.  Returns ``None`` when a leaf is unhashable — callers
    fall back to pairwise comparison for that bucket.

    ``memo`` (``id(tuple) -> (tuple, fingerprint)``) carries that identity
    memo across calls, so trees sharing sub-tuples hash each one once.
    Each entry holds its tuple, so an id cannot be reused while the memo
    lives; a caller owns the memo and decides how long that is.
    """
    if memo is None:
        memo = {}
    values: List[int] = []
    stack: List[Any] = [(0, tree)]
    while stack:
        phase, node = stack.pop()
        if phase == 0:
            if type(node) is tuple:
                key = id(node)
                cached = memo.get(key)
                if cached is not None:
                    values.append(cached[1])
                    continue
                stack.append((1, node))
                for child in reversed(node):
                    stack.append((0, child))
            else:
                try:
                    values.append(hash((0, node)))
                except (TypeError, RecursionError):
                    return None
        else:
            width = len(node)
            children = tuple(values[len(values) - width :])
            del values[len(values) - width :]
            fingerprint = hash((1, width, children))
            memo[id(node)] = (node, fingerprint)
            values.append(fingerprint)
    return values[0]


class ForestNode:
    """Base class for parse-forest nodes."""

    __slots__ = ()


class ForestEmpty(ForestNode):
    """A forest containing no parse trees."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ForestEmpty()"


#: Canonical empty forest.
FOREST_EMPTY = ForestEmpty()


class ForestLeaf(ForestNode):
    """A forest of fully-built trees (typically exactly one)."""

    __slots__ = ("trees",)

    def __init__(self, trees: tuple) -> None:
        self.trees = tuple(trees)

    def __repr__(self) -> str:
        return "ForestLeaf({!r})".format(self.trees)


class ForestPair(ForestNode):
    """Every tree ``(l, r)`` with ``l`` from ``left`` and ``r`` from ``right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: ForestNode, right: ForestNode) -> None:
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return "ForestPair({!r}, {!r})".format(self.left, self.right)


class ForestMap(ForestNode):
    """A reduction function applied to every tree of the child forest."""

    __slots__ = ("fn", "child")

    def __init__(self, fn, child: ForestNode) -> None:
        self.fn = fn
        self.child = child

    def __repr__(self) -> str:
        return "ForestMap({!r})".format(self.child)


class ForestAmb(ForestNode):
    """An ambiguity node: the union of several alternative forests."""

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: Optional[List[ForestNode]] = None) -> None:
        self.alternatives = list(alternatives) if alternatives is not None else []

    def __repr__(self) -> str:
        return "ForestAmb(<{} alternatives>)".format(len(self.alternatives))


class ForestRef(ForestNode):
    """A forward reference, used while building forests over cyclic grammars."""

    __slots__ = ("target",)

    def __init__(self, target: Optional[ForestNode] = None) -> None:
        self.target = target

    def __repr__(self) -> str:
        return "ForestRef(resolved={})".format(self.target is not None)


def iter_trees(forest: ForestNode, limit: Optional[int] = None) -> Iterator[Any]:
    """Enumerate the distinct parse trees of a forest, without recursion.

    Trees come in derivation order with repeats removed: the distinct
    trees of :meth:`~repro.core.forest_query.ForestQuery.tree_at` at
    ``0, 1, …``, each at its first occurrence.  ``limit`` bounds the
    number yielded (ambiguous grammars can have exponentially or
    infinitely many); ``limit=0`` yields none.

    On a cyclic forest the descent walks the finite core
    (:mod:`repro.core.forest_query`): every tree yielded is a derivation
    that never revisits a forest node on its own root path — a subset of
    those trees — and the enumeration is empty only when the forest has
    no finite tree at all.  Deep forests from long inputs are handled
    iteratively, so no interpreter limit applies.
    """
    from .forest_query import _iter_distinct

    return _iter_distinct(forest, limit)


def first_tree(forest: ForestNode) -> Any:
    """Return the first parse tree of the forest in derivation order.

    That is ``ForestQuery(forest).tree_at(0)``, the first tree
    :func:`iter_trees` yields.  Raises
    :class:`~repro.core.errors.EmptyForestError` (a ``ParseError`` that
    is also a ``ValueError``, for compatibility) when the forest holds no
    finite tree — either because the parse failed outright or because
    every derivation is cyclic.
    """
    from .forest_query import ForestQuery

    return ForestQuery(forest).tree_at(0)


def count_trees(forest: ForestNode) -> Union[int, float]:
    """Count the trees in a forest — an exact ``int``, of arbitrary
    magnitude; ``math.inf`` exactly when there are infinitely many
    derivations.

    The count treats shared sub-forests correctly (each distinct combination
    is counted once per context: the number of derivations, which exceeds
    the number of distinct trees when two derivations build one tree), and
    integer arithmetic is used throughout so counts beyond
    2^53 — Catalan-ambiguous cells reach 10^21 — never lose exactness to
    float rounding.  A forest with no finite tree counts 0, cyclic or
    not.  Built on the count pass of
    :class:`repro.core.forest_query.ForestQuery` (explicit stacks and
    worklists, so forests of any depth are counted without touching the
    interpreter recursion limit).
    """
    from .forest_query import exact_count

    return exact_count(forest)
