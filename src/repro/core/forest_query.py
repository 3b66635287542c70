"""Weighted queries over shared parse forests: exact counts, top-k, sampling.

The cubic bound of parsing with derivatives holds because ambiguous
parses stay a *shared graph* (:mod:`repro.core.forest`) — but that bound
is only useful if consumers never have to flatten the graph back into a
list of trees.  This module is the single place where forests are
consumed *as graphs*:

``ForestQuery``
    One iterative bottom-up pass over the forest computes, per node, the
    **exact** ``int`` number of derivations (``math.inf`` strictly for
    cyclic forests) and — when a :class:`Ranking` is supplied — the
    1-best derivation score.  Every operation below reads from that pass.

``iter_trees_ranked(forest, ranking, k)``
    Lazy best-first top-k extraction (Huang & Chiang style): each
    ambiguity node materializes at most one new candidate per tree
    emitted, so extracting ``k`` trees from a forest with ``10^21``
    derivations touches ``O(k)`` candidates per node, never the forest's
    tree count.

``sample_trees(forest, rng, n)``
    Exact uniform sampling over derivations by descending the graph with
    count-proportional choices — integer arithmetic throughout (no float
    rounding above 2^53), no rejection, no enumeration.

``count_trees`` in :mod:`repro.core.forest` is rebuilt on the same pass
via :func:`exact_count`.

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
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

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
# The bottom-up pass: per-node exact counts (+ 1-best scores).
# ---------------------------------------------------------------------------

# Opcodes for the iterative pass (post-order with a pair short-circuit).
_ENTER, _EXIT, _PAIR_RIGHT = range(3)


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
    """Weighted queries over one forest: count / best-k / uniform sample.

    Construction runs a single iterative post-order pass over the graph
    (three-color DFS; a back edge to a grey node marks the derivation
    space infinite) computing per-node exact ``int`` counts — cached, so
    every subsequent operation is incremental.  Supplying ``ranking``
    additionally computes per-node 1-best scores in the same pass and
    enables :meth:`iter_ranked`.
    """

    def __init__(self, forest: ForestNode, ranking: Union[str, Ranking, None] = None) -> None:
        self.forest = forest
        self.ranking = ranking_by_name(ranking)
        self._counts: Dict[int, Union[int, float]] = {}
        self._best: Dict[int, Any] = {}
        self._nodes: Dict[int, ForestNode] = {}  # keeps ids stable / nodes alive
        self._acyclic = True
        self._ranked_states: Dict[int, _RankedState] = {}
        self._seq = itertools.count()
        self._root_count = self._pass(forest)

    # ------------------------------------------------------------------
    # The counting (+ 1-best) pass.
    # ------------------------------------------------------------------

    def _pass(self, root: ForestNode) -> Union[int, float]:
        """Post-order walk from ``root``: exact counts (+ 1-best scores).

        A back edge to a node on the current walk path contributes
        ``math.inf`` — but inf values are **not** cached: a node inside a
        zero-guarded cycle can evaluate inf in one context yet have a
        finite true count (the old ``count_trees`` pinned this), so only
        context-free (non-inf) values persist.  Every node the sampler or
        the ranked extractor can reach ends up cached: a finite non-zero
        parent forces finite (hence cached) children.
        """
        ranking = self.ranking
        counts = self._counts
        bests = self._best
        nodes = self._nodes
        inf = math.inf
        on_path: set = set()
        stack: List[Tuple[int, Any]] = [(_ENTER, root)]
        values: List[Union[int, float]] = []
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
                    # Back edge: derivations through here never terminate.
                    self._acyclic = False
                    values.append(inf)
                    best_values.append(None)
                    continue
                nodes[key] = node
                if isinstance(node, ForestEmpty):
                    counts[key] = 0
                    values.append(0)
                    best_values.append(None)
                    continue
                if isinstance(node, ForestLeaf):
                    counts[key] = len(node.trees)
                    best = None
                    if ranking is not None and node.trees:
                        best = min(ranking.leaf(tree) for tree in node.trees)
                        bests[key] = best
                    values.append(len(node.trees))
                    best_values.append(best)
                    continue
                if isinstance(node, ForestRef) and node.target is None:
                    counts[key] = 0
                    values.append(0)
                    best_values.append(None)
                    continue
                on_path.add(key)
                if isinstance(node, (ForestRef, ForestMap)):
                    stack.append((_EXIT, node))
                    child = node.target if isinstance(node, ForestRef) else node.child
                    stack.append((_ENTER, child))
                elif isinstance(node, ForestAmb):
                    stack.append((_EXIT, node))
                    for alternative in reversed(node.alternatives):
                        stack.append((_ENTER, alternative))
                elif isinstance(node, ForestPair):
                    # Left side first; the right side is visited only when
                    # the left count is non-zero (mirrors the 0-guard).
                    stack.append((_PAIR_RIGHT, node))
                    stack.append((_ENTER, node.left))
                else:
                    raise TypeError("unknown forest node: {!r}".format(node))

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
                    right_count = values.pop()
                    right_best = best_values.pop()
                    if right_count == 0:
                        result: Union[int, float] = 0
                    elif left_count == inf or right_count == inf:
                        result = inf  # explicit: inf * big-int overflows float
                    else:
                        result = left_count * right_count
                    if (
                        ranking is not None
                        and result != 0
                        and left_best is not None
                        and right_best is not None
                    ):
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
                    total = 0
                    saw_inf = False
                    for _ in node.alternatives:
                        alt_count = values.pop()
                        alt_best = best_values.pop()
                        if alt_count == inf:
                            saw_inf = True
                        else:
                            total += alt_count
                        if alt_best is not None and (best is None or alt_best < best):
                            best = alt_best
                    result = inf if saw_inf else total
                key = id(node)
                on_path.discard(key)
                # Only cache values computed without hitting the current
                # path; a value involving a back edge is context-dependent.
                if result != inf:
                    counts[key] = result
                    if best is not None:
                        bests[key] = best
                values.append(result)
                best_values.append(best)

        return values[-1] if values else 0

    # ------------------------------------------------------------------
    # Counts.
    # ------------------------------------------------------------------

    @property
    def count(self) -> Union[int, float]:
        """Exact number of derivations of the whole forest (``int``), or
        ``math.inf`` when the forest is cyclic."""
        return self._root_count

    def count_at(self, node: ForestNode) -> Union[int, float]:
        """Exact derivation count of ``node`` (recomputed on demand for
        nodes the root pass short-circuited past)."""
        key = id(node)
        if key in self._counts:
            return self._counts[key]
        if node is self.forest:
            return self._root_count
        return self._pass(node)

    @property
    def best(self) -> Any:
        """1-best derivation score of the forest (``None`` if treeless)."""
        return self.best_at(self.forest)

    def best_at(self, node: ForestNode) -> Any:
        """1-best derivation score of ``node`` under the query's ranking."""
        if self.ranking is None:
            raise ValueError("this ForestQuery was built without a ranking")
        if id(node) not in self._counts and node is not self.forest:
            self._pass(node)
        if not self._acyclic:
            # On a cyclic graph the bottom-up 1-best may miss finite
            # derivations that revisit an ancestor; refuse rather than lie.
            raise ValueError("best scores require an acyclic forest")
        return self._best.get(id(node))

    # ------------------------------------------------------------------
    # Lazy best-first top-k extraction.
    # ------------------------------------------------------------------

    def iter_ranked(self, k: Optional[int] = None) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(score, tree)`` best-first; at most ``k`` when given.

        Lazy: asking for the next tree advances each touched node by at
        most one extraction, so memory is ``O(k)`` per ambiguity node no
        matter how many derivations the forest holds.  Requires a finite
        forest (``ValueError`` on cyclic ones) and a ranking.
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
                # Treeless subgraphs (including cycle-cut ones) are never
                # descended into — this is what keeps the machine acyclic.
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
            if state.seen is not None and self._amb_duplicate(state, tree, fingerprints):
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

    def _amb_duplicate(
        self, state: _RankedState, tree: Any, fingerprints: Dict[int, Tuple[tuple, int]]
    ) -> bool:
        """Enumeration-grade dedup: same tree via several alternatives."""
        fingerprint = tree_fingerprint(tree, fingerprints)
        bucket = state.seen.get(fingerprint)
        if bucket is None:
            state.seen[fingerprint] = [tree]
            return False
        if any(trees_equal(tree, prior) for prior in bucket):
            return True
        bucket.append(tree)
        return False

    # ------------------------------------------------------------------
    # Exact uniform sampling.
    # ------------------------------------------------------------------

    def sample(self, rng: Union[random.Random, int]) -> Any:
        """One tree drawn uniformly over the forest's derivations.

        Descends the graph making count-proportional choices with exact
        integer arithmetic — no rejection, no enumeration, no float
        rounding.  Raises :class:`EmptyForestError` on a treeless forest
        and ``ValueError`` on a cyclic one.
        """
        count = self.count
        if count == math.inf:
            raise ValueError(
                "cannot sample uniformly from a cyclic forest: "
                "infinitely many derivations"
            )
        if count == 0:
            raise EmptyForestError(
                "the parse forest contains no finite trees; input recognized "
                "but no finite parse tree could be extracted"
            )
        rng = _coerce_rng(rng)
        counts = self._counts
        ops: List[Tuple[Any, ...]] = [("visit", self.forest)]
        values: List[Any] = []
        while ops:
            op = ops.pop()
            kind = op[0]
            if kind == "visit":
                node = op[1]
                if isinstance(node, ForestLeaf):
                    trees = node.trees
                    index = rng.randrange(len(trees)) if len(trees) > 1 else 0
                    values.append(trees[index])
                elif isinstance(node, ForestRef):
                    ops.append(("visit", node.target))
                elif isinstance(node, ForestMap):
                    ops.append(("map", node.fn))
                    ops.append(("visit", node.child))
                elif isinstance(node, ForestPair):
                    # Combine runs after both sides; left draws first.
                    ops.append(("pair",))
                    ops.append(("visit", node.right))
                    ops.append(("visit", node.left))
                else:  # ForestAmb (Empty is unreachable: its count is 0)
                    target = rng.randrange(counts[id(node)])
                    for alt in node.alternatives:
                        alt_count = counts[id(alt)]
                        if target < alt_count:
                            ops.append(("visit", alt))
                            break
                        target -= alt_count
                    else:  # pragma: no cover - counts pass guarantees a hit
                        raise RuntimeError(
                            "sampling descent desynchronized from counts"
                        )
            elif kind == "pair":
                right_tree = values.pop()
                left_tree = values.pop()
                values.append((left_tree, right_tree))
            else:  # "map"
                values.append(op[1](values.pop()))
        return values[0]

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
    """Exact ``int`` derivation count; ``math.inf`` strictly for cycles."""
    return ForestQuery(forest).count


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
