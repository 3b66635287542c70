"""The one reader of shared parse forests: counts, the descent, top-k.

The cubic bound of parsing with derivatives holds because ambiguous
parses stay a *shared graph* (:mod:`repro.core.forest`) — but that bound
is only useful if consumers never have to flatten the graph back into a
list of trees.  :class:`ForestQuery` is the only code that reads a
forest, in three parts:

The count pass
    One iterative post-order pass computes, per node, the **exact**
    ``int`` number of derivations and — when a :class:`Ranking` is
    supplied — the 1-best derivation score.  On an acyclic forest that is
    a single DFS.  When the DFS meets a back edge it stops, and three
    linear sweeps take over: a worklist proves which nodes are
    *productive* (have at least one finite tree), a second resolves,
    children first, the productive nodes that reach no productive cycle
    and counts them exactly, and a third sizes the forest's *finite core*
    (below).  The rest count ``math.inf``, so ``math.inf`` means exactly
    "infinitely many derivations", whatever path reaches the node.

The descent, :meth:`ForestQuery.tree_at`
    Builds the tree of derivation number ``index`` by walking down the
    counts: an ambiguity node subtracts each alternative's count until the
    index falls inside one, a pair splits it with ``divmod`` by its right
    side's count, a map applies its function.  ``first_tree`` is
    ``tree_at(0)``; ``iter_trees`` keeps the distinct trees of
    ``tree_at(0), tree_at(1), …``; :meth:`ForestQuery.sample` is
    ``tree_at`` of a uniform index — integer arithmetic throughout, so the
    draw stays exactly uniform over derivations past 2^53.

    On a cyclic forest the descent walks the finite core.  Every edge is
    kept unless both ends are infinite and the worklist proved the child
    productive no earlier than the parent — only an ambiguity node's
    alternatives can fail that.  Proof order makes the core acyclic, and
    it keeps for each node the edges that proved it productive, so the
    core has a tree whenever the forest has one.  Each of its trees is a
    derivation that never revisits a node on its own root path.

The lazy k-best walk, :meth:`ForestQuery.iter_ranked`
    Best-first top-k extraction (Huang & Chiang style): each ambiguity
    node materializes at most one new candidate per tree emitted, so
    extracting ``k`` trees from a forest with ``10^21`` derivations
    touches ``O(k)`` candidates per node, never the forest's tree count.

``count_trees``, ``first_tree`` and ``iter_trees`` in
:mod:`repro.core.forest` and the module helpers below are thin wrappers.

Rankings score *derivations* compositionally (leaf / pair / map), so the
algebra is semiring-like: counts use (+, x), scores use (min, combine).
``ForestMap`` is score-preserving by default — a ranking may override
:meth:`Ranking.map` when the mapped tree should be re-weighted.

A score therefore measures the forest's *derivation encoding*, not the
finished tree: compaction turns pairs into maps (whose functions build
tree nodes the score never sees) and folds finished subtrees into leaves.
``TreeSizeRanking`` does not return a tree's node count, nor
``TreeDepthRanking`` its height.  What holds is the order contract:
scores never decrease along :meth:`ForestQuery.iter_ranked`, the ranked
trees are distinct derivations, and counts are exact.  Because the
encoding follows the compaction rules, a change to them can reorder
equal-score ranked trees and change which trees a seed draws from an
ambiguous forest (the ``δ(L) ⇒ ε_t`` fold did both); pooled and
in-process answers stay byte-identical, since both build the same forest.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import EmptyForestError
from .forest import (
    ForestAmb,
    ForestEmpty,
    ForestLeaf,
    ForestMap,
    ForestNode,
    ForestPair,
    ForestRef,
    tree_fingerprint,
    trees_equal,
)

__all__ = [
    "Ranking",
    "TreeSizeRanking",
    "TreeDepthRanking",
    "RANKINGS",
    "ranking_by_name",
    "ForestQuery",
    "exact_count",
    "iter_trees_ranked",
    "sample_trees",
]

_NO_TREES = (
    "the parse forest contains no finite trees; input recognized "
    "but no finite parse tree could be extracted"
)


# ---------------------------------------------------------------------------
# Rankings: pluggable derivation scores (lower is better).
# ---------------------------------------------------------------------------


def _tree_size(tree: Any) -> int:
    """Number of nodes in a tree, iteratively (trees nest input-deep)."""
    size = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        size += 1
        if type(node) is tuple:
            stack.extend(node)
    return size


def _tree_depth(tree: Any) -> int:
    """Height of a tree, iteratively (trees nest input-deep)."""
    depth = 0
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        if level > depth:
            depth = level
        if type(node) is tuple:
            for child in node:
                stack.append((child, level + 1))
    return depth


class Ranking:
    """Compositional score over derivations; smaller scores rank first.

    ``pair`` must be monotone in both arguments and ``map`` monotone in
    its score argument — that is what makes lazy best-first extraction
    sound (a candidate built from worse children can never beat one built
    from better children).  Scores must be totally ordered among
    themselves; ties are broken deterministically by discovery order.
    """

    #: Registry name (wire-safe identity for pooled dispatch).
    name = "ranking"

    def leaf(self, tree: Any) -> Any:
        """Score of a tree taken directly from a ``ForestLeaf``."""
        raise NotImplementedError

    def pair(self, left_score: Any, right_score: Any) -> Any:
        """Score of the tree combining a left and a right derivation."""
        raise NotImplementedError

    def map(self, fn: Any, score: Any) -> Any:
        """Score after a ``ForestMap`` reduction (default: preserved)."""
        return score


class TreeSizeRanking(Ranking):
    """Rank by the size of the derivation encoding, smallest first.

    Leaf trees count their nodes and each pair adds one; maps keep their
    child's score.  This is not the finished tree's node count (module
    docstring).
    """

    name = "size"

    def leaf(self, tree: Any) -> int:
        """Node count of a leaf-level tree."""
        return _tree_size(tree)

    def pair(self, left_score: int, right_score: int) -> int:
        """Sum of the children's scores plus one for the pair."""
        return left_score + right_score + 1


class TreeDepthRanking(Ranking):
    """Rank by the height of the derivation encoding, shallowest first.

    Leaf trees count their height and each pair adds one level; maps keep
    their child's score.  This is not the finished tree's height (module
    docstring).
    """

    name = "depth"

    def leaf(self, tree: Any) -> int:
        """Height of a leaf-level tree."""
        return _tree_depth(tree)

    def pair(self, left_score: int, right_score: int) -> int:
        """The larger child score plus one for the pair."""
        return max(left_score, right_score) + 1


#: Named rankings — the wire protocol ships names, never closures.
RANKINGS: Dict[str, Ranking] = {
    TreeSizeRanking.name: TreeSizeRanking(),
    TreeDepthRanking.name: TreeDepthRanking(),
}


def ranking_by_name(name: Union[str, Ranking, None]) -> Optional[Ranking]:
    """Resolve a ranking given by registry name (pass-through otherwise)."""
    if name is None or isinstance(name, Ranking):
        return name
    try:
        return RANKINGS[name]
    except KeyError:
        raise ValueError(
            "unknown ranking {!r}; registered: {}".format(
                name, ", ".join(sorted(RANKINGS))
            )
        ) from None


# ---------------------------------------------------------------------------
# Graph helpers shared by the passes.
# ---------------------------------------------------------------------------


def _children(node: ForestNode) -> Sequence[ForestNode]:
    """The child forests of ``node``, in derivation order."""
    if isinstance(node, ForestAmb):
        return node.alternatives
    if isinstance(node, ForestPair):
        return (node.left, node.right)
    if isinstance(node, ForestMap):
        return (node.child,)
    if isinstance(node, ForestRef):
        return () if node.target is None else (node.target,)
    if isinstance(node, (ForestLeaf, ForestEmpty)):
        return ()
    raise TypeError("unknown forest node: {!r}".format(node))


def _combine(
    node: ForestNode, children: Sequence[ForestNode], sizes: Dict[int, Any]
) -> Any:
    """``node``'s derivation count from its ``children``'s ``sizes``."""
    if isinstance(node, ForestLeaf):
        return len(node.trees)
    if isinstance(node, ForestPair):
        left, right = children
        return sizes[id(left)] * sizes[id(right)]
    return sum(sizes[id(child)] for child in children)  # amb, map, ref


def _seen_before(
    seen: Dict[Optional[int], List[Any]], tree: Any, memo: Dict[int, Tuple[tuple, int]]
) -> bool:
    """True when ``seen`` already holds a tree equal to ``tree``; else add it.

    ``seen`` buckets trees by :func:`tree_fingerprint` (``memo`` is its
    identity memo), so the check is O(1) per tree instead of a scan of
    every prior tree; :func:`trees_equal` within a bucket keeps it exact.
    """
    fingerprint = tree_fingerprint(tree, memo)
    bucket = seen.get(fingerprint)
    if bucket is None:
        seen[fingerprint] = [tree]
        return False
    if any(trees_equal(tree, prior) for prior in bucket):
        return True
    bucket.append(tree)
    return False


# Opcodes for the iterative DFS (post-order with a pair short-circuit).
_ENTER, _EXIT, _PAIR_RIGHT = range(3)

# Opcodes for the descent.
_VISIT, _JOIN, _MAP = range(3)


class _RankedState:
    """Lazy k-best bookkeeping for one forest node (Huang & Chiang)."""

    __slots__ = ("extracted", "heap", "pending", "pushed", "initialized", "exhausted", "seen")

    def __init__(self) -> None:
        self.extracted: List[Tuple[Any, Any]] = []  # (score, tree), best first
        self.heap: List[Tuple[Any, int, Any, Any]] = []  # (score, seq, tree, spec)
        self.pending: List[Any] = []  # derivation specs awaiting child ranks
        self.pushed: set = set()  # pair (i, j) specs ever pended (dedup)
        self.initialized = False
        self.exhausted = False
        self.seen: Optional[Dict[Optional[int], List[Any]]] = None  # amb dedup


class ForestQuery:
    """Queries over one forest: count / tree by index / best-k / sample.

    Construction runs the count pass (module docstring) and caches
    per-node exact ``int`` counts, so every later operation is
    incremental.  Supplying ``ranking`` additionally computes per-node
    1-best scores in the same pass and enables :meth:`iter_ranked`.
    """

    def __init__(self, forest: ForestNode, ranking: Union[str, Ranking, None] = None) -> None:
        self.forest = forest
        self.ranking = ranking_by_name(ranking)
        self._counts: Dict[int, Union[int, float]] = {}
        self._best: Dict[int, Any] = {}
        self._nodes: Dict[int, ForestNode] = {}  # keeps ids stable / nodes alive
        self._acyclic = True
        # What ``tree_at`` descends by: the counts, or on a cyclic forest
        # the finite core's counts and its infinite ambiguity nodes' kept
        # alternatives.
        self._sizes: Dict[int, Union[int, float]] = self._counts
        self._core_alternatives: Dict[int, List[ForestNode]] = {}
        self._ranked_states: Dict[int, _RankedState] = {}
        self._seq = itertools.count()
        count = self._dag_pass(forest)
        if count is None:  # the DFS met a back edge
            self._acyclic = False
            count = self._cyclic_pass(forest)
        self._root_count = count

    # ------------------------------------------------------------------
    # The count pass.
    # ------------------------------------------------------------------

    def _dag_pass(self, root: ForestNode) -> Optional[int]:
        """Post-order DFS from ``root``: exact counts (+ 1-best scores).

        Returns ``None`` as soon as it meets a back edge — a node already
        on the walk path — and leaves the cyclic forest to
        :meth:`_cyclic_pass`.  A pair whose left side counts zero is zero
        without visiting its right side.
        """
        ranking = self.ranking
        counts = self._counts
        bests = self._best
        nodes = self._nodes
        on_path: set = set()
        stack: List[Tuple[int, Any]] = [(_ENTER, root)]
        values: List[int] = []
        best_values: List[Any] = []  # parallel to ``values``

        while stack:
            op, node = stack.pop()

            if op == _ENTER:
                key = id(node)
                if key in counts:
                    values.append(counts[key])
                    best_values.append(bests.get(key))
                    continue
                if key in on_path:
                    return None
                nodes[key] = node
                children = _children(node)
                if not children:  # a leaf, or a forest without trees
                    trees = node.trees if isinstance(node, ForestLeaf) else ()
                    best = min(map(ranking.leaf, trees)) if ranking is not None and trees else None
                    counts[key] = len(trees)
                    if best is not None:
                        bests[key] = best
                    values.append(len(trees))
                    best_values.append(best)
                    continue
                on_path.add(key)
                if isinstance(node, ForestPair):
                    # Left side first; the right side is visited only when
                    # the left count is non-zero.
                    stack.append((_PAIR_RIGHT, node))
                    stack.append((_ENTER, node.left))
                else:
                    stack.append((_EXIT, node))
                    for child in reversed(children):
                        stack.append((_ENTER, child))

            elif op == _PAIR_RIGHT:
                left_count = values.pop()
                left_best = best_values.pop()
                if left_count == 0:
                    on_path.discard(id(node))
                    counts[id(node)] = 0
                    values.append(0)
                    best_values.append(None)
                else:
                    stack.append((_EXIT, (node, left_count, left_best)))
                    stack.append((_ENTER, node.right))

            else:  # _EXIT
                best = None
                if isinstance(node, tuple):  # a pair with its left results
                    node, left_count, left_best = node
                    right_best = best_values.pop()
                    result = left_count * values.pop()
                    if ranking is not None and result:  # both sides have a best
                        best = ranking.pair(left_best, right_best)
                elif isinstance(node, (ForestRef, ForestMap)):
                    result = values.pop()
                    child_best = best_values.pop()
                    if ranking is not None and child_best is not None:
                        if isinstance(node, ForestMap):
                            best = ranking.map(node.fn, child_best)
                        else:
                            best = child_best
                else:  # ForestAmb
                    result = 0
                    for _ in node.alternatives:
                        result += values.pop()
                        alt_best = best_values.pop()
                        if alt_best is not None and (best is None or alt_best < best):
                            best = alt_best
                key = id(node)
                on_path.discard(key)
                counts[key] = result
                if best is not None:
                    bests[key] = best
                values.append(result)
                best_values.append(best)

        return values[-1]

    def _cyclic_pass(self, root: ForestNode) -> Union[int, float]:
        """Counts of a cyclic forest, and its finite core, in linear sweeps.

        Recounts every node reachable from ``root`` (the aborted DFS's
        partial results are dropped) and computes no 1-best scores.
        """
        counts = self._counts
        counts.clear()
        self._best.clear()
        nodes = self._nodes
        inf = math.inf

        # Discovery: every reachable node once, each child edge reversed.
        order: List[ForestNode] = []
        parents: Dict[int, List[ForestNode]] = {id(root): []}
        stack = [root]
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            counts[id(node)] = 0  # unproductive nodes keep it
            order.append(node)
            for child in _children(node):
                key = id(child)
                if key not in parents:
                    parents[key] = []
                    stack.append(child)
                parents[key].append(node)

        # Productivity: ``proved`` is both the worklist and the proof order.
        # A pair waits for both sides, anything else for one child; a leaf
        # with trees needs nothing.
        waiting: Dict[int, int] = {}
        proved: List[ForestNode] = []
        rank: Dict[int, int] = {}
        for node in order:
            if isinstance(node, ForestLeaf):
                need = 0 if node.trees else 1
            else:
                need = 2 if isinstance(node, ForestPair) else 1
            waiting[id(node)] = need
            if need == 0:
                rank[id(node)] = len(proved)
                proved.append(node)
        for child in proved:
            for parent in parents[id(child)]:
                key = id(parent)
                waiting[key] -= 1
                if waiting[key] == 0:
                    rank[key] = len(proved)
                    proved.append(parent)

        # Finiteness: a productive node resolves once all its productive
        # children have, and is counted then; the rest reach a productive
        # cycle and count ``math.inf``.
        pending: Dict[int, int] = {}
        resolved: List[ForestNode] = []
        for node in proved:
            pending[id(node)] = sum(1 for child in _children(node) if id(child) in rank)
            if pending[id(node)] == 0:
                resolved.append(node)
        for node in resolved:
            counts[id(node)] = _combine(node, _children(node), counts)
            for parent in parents[id(node)]:
                key = id(parent)
                if key in pending:
                    pending[key] -= 1
                    if pending[key] == 0:
                        resolved.append(parent)
        for node in proved:
            if pending[id(node)]:
                counts[id(node)] = inf

        # The finite core, sized in proof order: a kept infinite child was
        # proved before its parent, so its core count is already known.
        sizes = dict(counts)
        for node in proved:
            key = id(node)
            if counts[key] != inf:
                continue
            children = _children(node)
            if isinstance(node, ForestAmb):
                children = self._core_alternatives[key] = [
                    alternative
                    for alternative in children
                    if counts[id(alternative)] != inf or rank[id(alternative)] < rank[key]
                ]
            sizes[key] = _combine(node, children, sizes)
        self._sizes = sizes
        return counts[id(root)]

    # ------------------------------------------------------------------
    # Counts.
    # ------------------------------------------------------------------

    @property
    def count(self) -> Union[int, float]:
        """Exact number of derivations of the whole forest (``int``), or
        ``math.inf`` exactly when there are infinitely many."""
        return self._root_count

    def count_at(self, node: ForestNode) -> Union[int, float]:
        """Exact derivation count of ``node`` (a fresh pass for nodes the
        root pass short-circuited past)."""
        count = self._counts.get(id(node))
        return ForestQuery(node).count if count is None else count

    @property
    def best(self) -> Any:
        """1-best derivation score of the forest (``None`` if treeless)."""
        return self.best_at(self.forest)

    def best_at(self, node: ForestNode) -> Any:
        """1-best derivation score of ``node`` under the query's ranking."""
        if self.ranking is None:
            raise ValueError("this ForestQuery was built without a ranking")
        if id(node) not in self._counts:
            return ForestQuery(node, self.ranking).best
        if not self._acyclic:
            # On a cyclic graph the bottom-up 1-best may miss finite
            # derivations that revisit an ancestor; refuse rather than lie.
            raise ValueError("best scores require an acyclic forest")
        return self._best.get(id(node))

    # ------------------------------------------------------------------
    # The descent.
    # ------------------------------------------------------------------

    def tree_at(self, index: int) -> Any:
        """The tree of derivation number ``index``, counted from 0.

        Derivation order lists an ambiguity node's alternatives in turn,
        a pair's left derivations outermost and a leaf's trees in order.
        Valid indexes run up to the count — on a cyclic forest, the count
        of its finite core (module docstring).  Raises
        :class:`EmptyForestError` when the forest holds no finite tree
        and ``IndexError`` past the last derivation.  Iterative, so a
        forest as deep as a long input needs no interpreter stack.
        """
        sizes = self._sizes
        kept = self._core_alternatives
        total = sizes[id(self.forest)]
        if not 0 <= index < total:
            if total == 0:
                raise EmptyForestError(_NO_TREES)
            raise IndexError("derivation {} of {}".format(index, total))
        stack: List[Tuple[int, Any, int]] = [(_VISIT, self.forest, index)]
        values: List[Any] = []
        while stack:
            op, node, index = stack.pop()
            if op == _JOIN:
                right = values.pop()
                values[-1] = (values[-1], right)
            elif op == _MAP:
                values[-1] = node.fn(values[-1])
            elif isinstance(node, ForestLeaf):
                values.append(node.trees[index])
            elif isinstance(node, ForestRef):
                stack.append((_VISIT, node.target, index))
            elif isinstance(node, ForestMap):
                stack.append((_MAP, node, 0))
                stack.append((_VISIT, node.child, index))
            elif isinstance(node, ForestPair):
                left_index, right_index = divmod(index, sizes[id(node.right)])
                stack.append((_JOIN, node, 0))
                stack.append((_VISIT, node.right, right_index))
                stack.append((_VISIT, node.left, left_index))
            else:  # ForestAmb (an empty forest counts 0 and is never visited)
                for alternative in kept.get(id(node), node.alternatives):
                    size = sizes[id(alternative)]
                    if index < size:
                        stack.append((_VISIT, alternative, index))
                        break
                    index -= size
        return values[0]

    # ------------------------------------------------------------------
    # Lazy best-first top-k extraction.
    # ------------------------------------------------------------------

    def iter_ranked(self, k: Optional[int] = None) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(score, tree)`` best-first; at most ``k`` when given.

        Lazy: asking for the next tree advances each touched node by at
        most one extraction, so memory is ``O(k)`` per ambiguity node no
        matter how many derivations the forest holds.  Requires a ranking
        and finitely many derivations (``ValueError`` naming the cycle
        otherwise).
        """
        if self.ranking is None:
            raise ValueError("iter_ranked requires a ranking")
        if self.count == math.inf:
            raise ValueError(
                "cannot rank a cyclic forest: infinitely many derivations"
            )
        if k is not None and k < 0:
            raise ValueError("k must be non-negative")
        return self._iter_ranked(k)

    def _iter_ranked(self, k: Optional[int]) -> Iterator[Tuple[Any, Any]]:
        root = self.forest
        rank = 0
        # One tree_fingerprint memo for every ambiguity node of this walk:
        # candidates share sub-tuples, so each is hashed once.  It pins the
        # tuples it has seen, so it lives only as long as the walk.
        fingerprints: Dict[int, Tuple[tuple, int]] = {}
        while k is None or rank < k:
            self._ensure_ranked(root, rank + 1, fingerprints)
            state = self._ranked_states[id(root)]
            if len(state.extracted) <= rank:
                return
            yield state.extracted[rank]
            rank += 1

    def _ranked_state(self, node: ForestNode) -> _RankedState:
        key = id(node)
        state = self._ranked_states.get(key)
        if state is None:
            state = _RankedState()
            if self._counts.get(key, 0) == 0:
                # Treeless subgraphs are never descended into — with a
                # finite root count that keeps the walk off every cycle.
                state.initialized = True
                state.exhausted = True
            self._ranked_states[key] = state
        return state

    def _ensure_ranked(
        self, node: ForestNode, want: int, fingerprints: Dict[int, Tuple[tuple, int]]
    ) -> None:
        """Drive ``node`` to ``want`` extractions (or exhaustion), iteratively."""
        stack: List[Tuple[ForestNode, int]] = [(node, want)]
        while stack:
            current, need = stack[-1]
            state = self._ranked_state(current)
            if state.exhausted or len(state.extracted) >= need:
                stack.pop()
                continue
            if not state.initialized:
                self._init_ranked(current, state)
            needs = self._flush_pending(current, state)
            if needs:
                stack.extend(needs)
                continue
            if not state.heap:
                state.exhausted = True
                continue
            score, _seq, tree, spec = heapq.heappop(state.heap)
            self._push_successors(current, state, spec)
            if state.seen is not None and _seen_before(state.seen, tree, fingerprints):
                continue  # same tree via another alternative: skip, keep going
            state.extracted.append((score, tree))

    def _init_ranked(self, node: ForestNode, state: _RankedState) -> None:
        ranking = self.ranking
        if isinstance(node, ForestLeaf):
            for tree in node.trees:
                heapq.heappush(
                    state.heap, (ranking.leaf(tree), next(self._seq), tree, None)
                )
        elif isinstance(node, (ForestMap, ForestRef)):
            state.pending.append(0)
        elif isinstance(node, ForestAmb):
            state.seen = {}
            state.pending.extend(
                (index, 0) for index in range(len(node.alternatives))
            )
        elif isinstance(node, ForestPair):
            state.pending.append((0, 0))
            state.pushed.add((0, 0))
        state.initialized = True

    def _flush_pending(
        self, node: ForestNode, state: _RankedState
    ) -> List[Tuple[ForestNode, int]]:
        """Materialize ready candidate specs; return unmet child requests."""
        needs: List[Tuple[ForestNode, int]] = []
        remaining: List[Any] = []
        for spec in state.pending:
            ready = True
            dead = False
            for child, rank in self._spec_requirements(node, spec):
                child_state = self._ranked_states.get(id(child))
                if child_state is not None and len(child_state.extracted) > rank:
                    continue
                if child_state is not None and child_state.exhausted:
                    dead = True
                    break
                ready = False
                needs.append((child, rank + 1))
            if dead:
                continue
            if ready:
                self._materialize(node, state, spec)
            else:
                remaining.append(spec)
        state.pending = remaining
        return needs

    def _spec_requirements(
        self, node: ForestNode, spec: Any
    ) -> Tuple[Tuple[ForestNode, int], ...]:
        if isinstance(node, ForestPair):
            i, j = spec
            return ((node.left, i), (node.right, j))
        if isinstance(node, ForestAmb):
            index, rank = spec
            return ((node.alternatives[index], rank),)
        if isinstance(node, ForestMap):
            return ((node.child, spec),)
        # ForestRef — a None target never reaches here (count 0 → exhausted).
        return ((node.target, spec),)

    def _materialize(self, node: ForestNode, state: _RankedState, spec: Any) -> None:
        ranking = self.ranking
        if isinstance(node, ForestPair):
            i, j = spec
            left_score, left_tree = self._ranked_states[id(node.left)].extracted[i]
            right_score, right_tree = self._ranked_states[id(node.right)].extracted[j]
            entry = (
                ranking.pair(left_score, right_score),
                next(self._seq),
                (left_tree, right_tree),
                spec,
            )
        elif isinstance(node, ForestAmb):
            index, rank = spec
            score, tree = self._ranked_states[id(node.alternatives[index])].extracted[rank]
            entry = (score, next(self._seq), tree, spec)
        elif isinstance(node, ForestMap):
            score, tree = self._ranked_states[id(node.child)].extracted[spec]
            entry = (ranking.map(node.fn, score), next(self._seq), node.fn(tree), spec)
        else:  # ForestRef
            score, tree = self._ranked_states[id(node.target)].extracted[spec]
            entry = (score, next(self._seq), tree, spec)
        heapq.heappush(state.heap, entry)

    def _push_successors(self, node: ForestNode, state: _RankedState, spec: Any) -> None:
        if spec is None:  # leaf candidates have no successors
            return
        if isinstance(node, ForestPair):
            i, j = spec
            for successor in ((i + 1, j), (i, j + 1)):
                if successor not in state.pushed:
                    state.pushed.add(successor)
                    state.pending.append(successor)
        elif isinstance(node, ForestAmb):
            index, rank = spec
            state.pending.append((index, rank + 1))
        else:  # ForestMap / ForestRef
            state.pending.append(spec + 1)

    # ------------------------------------------------------------------
    # Exact uniform sampling.
    # ------------------------------------------------------------------

    def sample(self, rng: Union[random.Random, int]) -> Any:
        """One tree drawn uniformly over the forest's derivations.

        ``tree_at`` of one uniform index — no rejection, no enumeration,
        no float rounding.  Raises :class:`EmptyForestError` on a treeless
        forest and ``ValueError`` on one with infinitely many derivations.
        """
        count = self.count
        if count == math.inf:
            raise ValueError(
                "cannot sample uniformly from a cyclic forest: "
                "infinitely many derivations"
            )
        if count == 0:
            raise EmptyForestError(_NO_TREES)
        return self.tree_at(_coerce_rng(rng).randrange(count))

    def sample_n(self, rng: Union[random.Random, int], n: int) -> List[Any]:
        """``n`` independent uniform samples from one RNG stream."""
        if n < 0:
            raise ValueError("n must be non-negative")
        rng = _coerce_rng(rng)
        return [self.sample(rng) for _ in range(n)]


def _coerce_rng(rng: Union[random.Random, int]) -> random.Random:
    """Explicit RNG only (the repo audits against global-RNG use)."""
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, int) and not isinstance(rng, bool):
        return random.Random(rng)
    raise TypeError(
        "rng must be a random.Random instance or an int seed; "
        "implicit global randomness is not accepted"
    )


# ---------------------------------------------------------------------------
# Module-level conveniences (what the engines call).
# ---------------------------------------------------------------------------


def exact_count(forest: ForestNode) -> Union[int, float]:
    """Exact ``int`` derivation count; ``math.inf`` exactly when infinite."""
    return ForestQuery(forest).count


def _iter_distinct(forest: ForestNode, limit: Optional[int]) -> Iterator[Any]:
    """The distinct trees of ``tree_at(0), tree_at(1), …``, first occurrence
    first; at most ``limit`` (``iter_trees`` in :mod:`repro.core.forest`)."""
    if limit is not None and limit <= 0:
        return
    query = ForestQuery(forest)
    seen: Dict[Optional[int], List[Any]] = {}
    fingerprints: Dict[int, Tuple[tuple, int]] = {}
    emitted = 0
    for index in range(query._sizes[id(forest)]):
        tree = query.tree_at(index)
        if _seen_before(seen, tree, fingerprints):
            continue
        yield tree
        emitted += 1
        if emitted == limit:
            return


def iter_trees_ranked(
    forest: ForestNode,
    ranking: Union[str, Ranking] = "size",
    k: Optional[int] = None,
) -> Iterator[Any]:
    """Trees of ``forest`` best-first under ``ranking``; at most ``k``."""
    query = ForestQuery(forest, ranking)
    return (tree for _score, tree in query.iter_ranked(k))


def sample_trees(
    forest: ForestNode,
    rng: Union[random.Random, int],
    n: int = 1,
) -> List[Any]:
    """``n`` uniform samples over the derivations of ``forest``."""
    return ForestQuery(forest).sample_n(rng, n)
