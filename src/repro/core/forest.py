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

Forests are produced by ``parse_null`` (:mod:`repro.core.parse`) and consumed
through :func:`iter_trees`, :func:`count_trees` and :func:`first_tree`.

Tree extraction is **iterative**: forests produced by long inputs are as deep
as the input (a 100 000-token parse yields a forest nested 100 000 levels
deep), so enumeration runs on an explicit stack of resumable frames instead
of the interpreter call stack.  Cycles are cut by tracking the identity of
every forest node on the current enumeration path, which also guarantees
termination without any depth cap.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from .errors import EmptyForestError

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
    "is_empty_forest",
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


def is_empty_forest(forest: ForestNode) -> bool:
    """True when the forest (shallowly) contains no parse trees.

    A :class:`ForestRef` or :class:`ForestAmb` with no resolved alternatives is
    treated as empty; deeper emptiness (e.g. a pair with an empty side) is
    discovered during enumeration.  Chains of references are followed
    iteratively (``parse_null`` can produce reference chains as long as the
    input).
    """
    seen: set = set()
    while isinstance(forest, ForestRef):
        if forest.target is None or id(forest) in seen:
            return True
        seen.add(id(forest))
        forest = forest.target
    if isinstance(forest, ForestEmpty):
        return True
    if isinstance(forest, ForestLeaf):
        return len(forest.trees) == 0
    if isinstance(forest, ForestAmb):
        return len(forest.alternatives) == 0
    return False


# --------------------------------------------------------------------------
# Iterative tree enumeration.
#
# Each forest node on the current enumeration path is represented by a
# resumable frame.  A driver loop moves a cursor up and down the chain of
# frames: a frame may PUSH a new child enumeration, PULL the next tree from a
# suspended child, EMIT a tree to its parent (or to the consumer) or report
# DONE.  The set of forest-node ids on the *active* chain is maintained
# incrementally and consulted before each PUSH, so cyclic forests terminate
# by skipping alternatives that would revisit a node already being expanded —
# exactly the finite trees of the forest.
# --------------------------------------------------------------------------

_START, _MORE, _TREE, _CHILD_DONE = range(4)
_PUSH, _PULL, _EMIT, _DONE = range(4)


class _Frame:
    """A resumable enumeration state for one forest node."""

    __slots__ = ("forest", "parent")

    def __init__(self, forest: ForestNode, parent: Optional["_Frame"]) -> None:
        self.forest = forest
        self.parent = parent


class _EmptyFrame(_Frame):
    __slots__ = ()

    def resume(self, msg: int, arg: Any):
        return _DONE, None


class _LeafFrame(_Frame):
    __slots__ = ("index",)

    def __init__(self, forest: ForestLeaf, parent: Optional[_Frame]) -> None:
        super().__init__(forest, parent)
        self.index = 0

    def resume(self, msg: int, arg: Any):
        trees = self.forest.trees
        if self.index < len(trees):
            tree = trees[self.index]
            self.index += 1
            return _EMIT, tree
        return _DONE, None


class _RefFrame(_Frame):
    __slots__ = ("child",)

    def __init__(self, forest: ForestRef, parent: Optional[_Frame]) -> None:
        super().__init__(forest, parent)
        self.child: Optional[_Frame] = None

    def resume(self, msg: int, arg: Any):
        if msg == _START:
            if self.forest.target is None:
                return _DONE, None
            return _PUSH, self.forest.target
        if msg == _TREE:
            return _EMIT, arg
        if msg == _MORE:
            return _PULL, self.child
        return _DONE, None  # child exhausted


class _MapFrame(_Frame):
    __slots__ = ("child",)

    def __init__(self, forest: ForestMap, parent: Optional[_Frame]) -> None:
        super().__init__(forest, parent)
        self.child: Optional[_Frame] = None

    def resume(self, msg: int, arg: Any):
        if msg == _START:
            return _PUSH, self.forest.child
        if msg == _TREE:
            return _EMIT, self.forest.fn(arg)
        if msg == _MORE:
            return _PULL, self.child
        return _DONE, None


class _AmbFrame(_Frame):
    __slots__ = ("child", "index", "seen")

    def __init__(self, forest: ForestAmb, parent: Optional[_Frame]) -> None:
        super().__init__(forest, parent)
        self.child: Optional[_Frame] = None
        self.index = 0
        # Fingerprint -> trees with that fingerprint.  Bucketing makes the
        # duplicate check O(1) per tree instead of O(k) against every prior
        # tree; trees_equal within a bucket keeps it collision-exact.
        self.seen: Dict[Optional[int], List[Any]] = {}

    def resume(self, msg: int, arg: Any):
        if msg == _TREE:
            # The same tree can arrive through several alternatives; only the
            # first derivation is reported (enumeration-time deduplication).
            fingerprint = tree_fingerprint(arg)
            bucket = self.seen.get(fingerprint)
            if bucket is None:
                self.seen[fingerprint] = [arg]
                return _EMIT, arg
            if any(trees_equal(arg, prior) for prior in bucket):
                return _PULL, self.child
            bucket.append(arg)
            return _EMIT, arg
        if msg == _MORE:
            return _PULL, self.child
        if msg == _CHILD_DONE:
            self.index += 1
        alternatives = self.forest.alternatives
        if self.index < len(alternatives):
            return _PUSH, alternatives[self.index]
        return _DONE, None


class _PairFrame(_Frame):
    """Nested-loop cross product: a fresh right enumeration per left tree."""

    __slots__ = ("left_frame", "right_frame", "left_tree", "in_right")

    def __init__(self, forest: ForestPair, parent: Optional[_Frame]) -> None:
        super().__init__(forest, parent)
        self.left_frame: Optional[_Frame] = None
        self.right_frame: Optional[_Frame] = None
        self.left_tree: Any = None
        self.in_right = False

    def resume(self, msg: int, arg: Any):
        if msg == _START:
            return _PUSH, self.forest.left
        if msg == _TREE:
            if self.in_right:
                return _EMIT, (self.left_tree, arg)
            self.left_tree = arg
            self.in_right = True
            return _PUSH, self.forest.right
        if msg == _MORE:
            return _PULL, self.right_frame
        # _CHILD_DONE
        if self.in_right:
            self.in_right = False
            self.right_frame = None
            return _PULL, self.left_frame
        return _DONE, None


_FRAME_TYPES = {
    ForestEmpty: _EmptyFrame,
    ForestLeaf: _LeafFrame,
    ForestRef: _RefFrame,
    ForestMap: _MapFrame,
    ForestAmb: _AmbFrame,
    ForestPair: _PairFrame,
}


def _make_frame(forest: ForestNode, parent: Optional[_Frame]) -> _Frame:
    frame_type = _FRAME_TYPES.get(type(forest))
    if frame_type is None:
        raise TypeError("unknown forest node: {!r}".format(forest))
    return frame_type(forest, parent)


def _attach_child(parent: _Frame, child: _Frame) -> None:
    """Record ``child`` as the parent frame's resumable active child."""
    if isinstance(parent, _PairFrame):
        if parent.in_right:
            parent.right_frame = child
        else:
            parent.left_frame = child
    elif isinstance(parent, (_RefFrame, _MapFrame, _AmbFrame)):
        parent.child = child


def _enumerate(root: ForestNode) -> Iterator[Any]:
    """Drive the frame machine, yielding every finite tree of ``root``."""
    on_path: set = set()

    current: Optional[_Frame] = _make_frame(root, None)
    on_path.add(id(root))
    msg, arg = _START, None

    while current is not None:
        action, value = current.resume(msg, arg)

        if action == _PUSH:
            # Skip children already being expanded on this path (cycles):
            # they "contain no finite trees".
            if id(value) in on_path:
                msg, arg = _CHILD_DONE, None
                continue
            child = _make_frame(value, current)
            _attach_child(current, child)
            on_path.add(id(value))
            current = child
            msg, arg = _START, None
        elif action == _PULL:
            # Re-descend into a suspended child enumeration.
            child = value
            on_path.add(id(child.forest))
            current = child
            msg, arg = _MORE, None
        elif action == _EMIT:
            # Hand the tree to the parent (or the consumer); the emitting
            # frame suspends and leaves the active path.
            on_path.discard(id(current.forest))
            if current.parent is None:
                yield value
                # The consumer asked for another tree: re-enter the root.
                on_path.add(id(current.forest))
                msg, arg = _MORE, None
            else:
                current = current.parent
                msg, arg = _TREE, value
        else:  # _DONE
            on_path.discard(id(current.forest))
            current = current.parent
            msg, arg = _CHILD_DONE, None


def iter_trees(forest: ForestNode, limit: Optional[int] = None) -> Iterator[Any]:
    """Enumerate concrete parse trees from a forest, without recursion.

    ``limit`` bounds the number of trees yielded (ambiguous grammars can have
    exponentially or infinitely many); ``limit=0`` yields none.  Cycles
    terminate on their own: an alternative that would revisit a forest node
    already on the current enumeration path is skipped, which yields exactly
    the finite trees of the forest.  Deep forests from long inputs are
    handled iteratively, so no interpreter limit applies.
    """
    if limit is not None and limit <= 0:
        return
    for emitted, tree in enumerate(_enumerate(forest), 1):
        yield tree
        if emitted == limit:
            return


def first_tree(forest: ForestNode) -> Any:
    """Return one parse tree from the forest.

    Raises :class:`~repro.core.errors.EmptyForestError` (a ``ParseError``
    that is also a ``ValueError``, for compatibility) when the forest holds
    no finite trees — either because the parse failed outright or because
    every alternative was cut by the cycle guard.
    """
    for tree in _enumerate(forest):
        return tree
    raise EmptyForestError(
        "the parse forest contains no finite trees; input recognized "
        "but no finite parse tree could be extracted"
    )


def count_trees(forest: ForestNode) -> Union[int, float]:
    """Count the trees in a forest — an exact ``int``, of arbitrary
    magnitude; ``math.inf`` strictly for cyclic forests.

    The count treats shared sub-forests correctly (each distinct combination
    is counted once per context, which is the number of distinct parse
    trees), and integer arithmetic is used throughout so counts beyond
    2^53 — Catalan-ambiguous cells reach 10^21 — never lose exactness to
    float rounding.  Built on the shared bottom-up pass of
    :class:`repro.core.forest_query.ForestQuery` (explicit-stack post-order,
    so forests of any depth are counted without touching the interpreter
    recursion limit).
    """
    from .forest_query import exact_count

    return exact_count(forest)
