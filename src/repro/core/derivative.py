"""The derivative of parsing expressions (Figure 2, Sections 2.3–2.5).

``Deriver.derive(node, token)`` computes the Brzozowski derivative of a
(possibly cyclic) grammar node with respect to one input token, following the
rules of Figure 2:

* ``Dc(∅) = ∅`` and ``Dc(ε) = ∅``
* ``Dc(c') = ε_c`` when the token matches, ``∅`` otherwise
* ``Dc(L1 ∪ L2) = Dc(L1) ∪ Dc(L2)``
* ``Dc(L1 ◦ L2) = Dc(L1) ◦ L2``                      when ``L1`` is not nullable
* ``Dc(L1 ◦ L2) = (Dc(L1) ◦ L2) ∪ Dc(L2)``           when ``L1`` is nullable
* ``Dc(L ↪→ f) = Dc(L) ↪→ f``

Cycles are handled exactly as described in Section 2.5.2: before descending
into a node's children, ``derive`` installs a *partially constructed* result
node in the memo table; any child lookup caused by a cycle finds and uses
that placeholder.  After the children's derivatives are available, either

* the placeholder was **observed** by a cyclic lookup (there really was a
  cycle) — its children are filled in place and no compaction is attempted
  (the "punt on cycle" rule of Section 4.3.3), or
* the placeholder was **not observed** — it is discarded, the result is built
  through the compaction smart constructors (Section 4.3), and the memo entry
  is replaced by the compacted node.

The traversal itself is **iterative**: grammar graphs derived from long
inputs can be as deep as the input (hundreds of thousands of nodes on a
right-recursive chain), so ``derive`` runs a small virtual machine over an
explicit stack of pending nodes and suspended continuations instead of
recursing on the interpreter stack.  No ``sys.setrecursionlimit`` escape
hatch is needed at any input length.

Memoization is pluggable (:mod:`repro.core.memo`); the default single-entry
strategy is the improvement of Section 4.4.

With the new compaction rules on, the null branch ``δ(L1) ◦ Dc(L2)`` is
built as ``ε_t ◦ Dc(L2)`` when ``L1``'s null parses are exactly one finite
tree ``t`` (:meth:`Deriver.null_trees`; this repository's extension of the
Section 4.3 rules, described in :mod:`repro.core.compaction`).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .compaction import Compactor
from .errors import GrammarError
from .languages import (
    EMPTY,
    Alt,
    Cat,
    Delta,
    Empty,
    Epsilon,
    Language,
    Reduce,
    Ref,
    Token,
    token_value,
)
from .memo import MISS, DeriveMemo, SingleEntryMemo
from .metrics import Metrics
from .naming import NamingScheme
from .nullability import NullabilityAnalyzer

__all__ = ["Deriver"]

#: :meth:`Deriver.null_trees` memo value of a node whose walk is under way.
_ON_PATH = object()


# Opcodes for the explicit-stack derive machine.  A _DERIVE entry asks for the
# derivative of one node (the recursive call); a _FINISH_* entry resumes a
# suspended composite node once its children's derivatives are in its result
# slots (the code after the recursive calls in the textbook presentation).
(
    _DERIVE,
    _FINISH_ALT,
    _FINISH_CAT,
    _FINISH_CAT_NULLABLE,
    _FINISH_REDUCE,
    _FINISH_REF,
) = range(6)


class Deriver:
    """Memoized, cycle-aware, compacting derivative computation."""

    def __init__(
        self,
        memo: Optional[DeriveMemo] = None,
        compactor: Optional[Compactor] = None,
        nullability: Optional[NullabilityAnalyzer] = None,
        metrics: Optional[Metrics] = None,
        naming: Optional[NamingScheme] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else Metrics()
        self.memo = memo if memo is not None else SingleEntryMemo(self.metrics)
        self.compactor = compactor if compactor is not None else Compactor(metrics=self.metrics)
        self.nullability = (
            nullability if nullability is not None else NullabilityAnalyzer(self.metrics)
        )
        self.naming = naming
        #: ``id(node) -> (node, answer)`` for :meth:`null_trees`; the node is
        #: held so its id cannot be reused while the entry lives.
        self._null_trees: dict = {}

    # ------------------------------------------------------------------ API
    def clear_null_trees(self) -> None:
        """Forget the :meth:`null_trees` answers (``DerivativeParser.reset``)."""
        self._null_trees.clear()

    def derive(self, node: Language, token: Any, position: int = 0) -> Language:
        """Return the derivative of ``node`` with respect to ``token``.

        ``position`` is the index of ``token`` in the input; it is used only
        by the optional naming instrumentation (Definition 5) and does not
        affect the computed language.

        The computation is fully iterative: an explicit stack holds, for each
        suspended composite node, its installed placeholder and the result
        slots its children's derivatives are delivered into.  Left children
        are always expanded to completion before right children, matching the
        order (and therefore the memoization, naming and metrics behaviour)
        of the recursive formulation.
        """
        memo = self.memo
        metrics = self.metrics
        root_slot: List[Optional[Language]] = [None]
        # Each stack entry is (opcode, node, out, slot) for _DERIVE or
        # (opcode, node, placeholder, results, out, slot) for _FINISH_*.
        stack: List[Tuple] = [(_DERIVE, node, root_slot, 0)]

        while stack:
            entry = stack.pop()
            op = entry[0]

            if op == _DERIVE:
                _, current, out, slot = entry
                metrics.derive_calls += 1
                cached = memo.get(current, token)
                if cached is not MISS:
                    metrics.derive_cache_hits += 1
                    if isinstance(cached, Language) and cached.under_construction:
                        # A lookup that finds a partially constructed result
                        # is exactly the cycle case of Section 2.5.2.
                        cached.observed = True
                    out[slot] = cached
                    continue
                metrics.derive_uncached += 1

                if isinstance(current, (Empty, Epsilon, Delta)):
                    # Dc(∅) = Dc(ε) = Dc(δ(L)) = ∅ — no first token accepted.
                    memo.put(current, token, EMPTY)
                    out[slot] = EMPTY
                    continue

                if isinstance(current, Token):
                    if current.matches(token):
                        result: Language = self.compactor.make_epsilon((token_value(token),))
                        self._name(current, result, position, with_bullet=False)
                    else:
                        result = EMPTY
                    memo.put(current, token, result)
                    out[slot] = result
                    continue

                if isinstance(current, Alt):
                    if current.left is None or current.right is None:
                        raise GrammarError(
                            "derivative of an incomplete ∪ node: {!r}".format(current)
                        )
                    placeholder = self.compactor.raw_alt()
                    placeholder.under_construction = True
                    memo.put(current, token, placeholder)
                    results: List[Optional[Language]] = [None, None]
                    stack.append((_FINISH_ALT, current, placeholder, results, out, slot))
                    stack.append((_DERIVE, current.right, results, 1))
                    stack.append((_DERIVE, current.left, results, 0))
                    continue

                if isinstance(current, Cat):
                    if current.left is None or current.right is None:
                        raise GrammarError(
                            "derivative of an incomplete ◦ node: {!r}".format(current)
                        )
                    if not self.nullability.nullable(current.left):
                        # Dc(L1 ◦ L2) = Dc(L1) ◦ L2
                        cat_placeholder = self.compactor.raw_cat()
                        cat_placeholder.under_construction = True
                        cat_placeholder.right = current.right
                        memo.put(current, token, cat_placeholder)
                        results = [None]
                        stack.append(
                            (_FINISH_CAT, current, cat_placeholder, results, out, slot)
                        )
                        stack.append((_DERIVE, current.left, results, 0))
                        continue
                    # Dc(L1 ◦ L2) = (Dc(L1) ◦ L2) ∪ (δ(L1) ◦ Dc(L2)) — the
                    # duplication case tracked by the naming argument (Rule
                    # 5b) with the • symbol.  The δ(L1) factor keeps L1's
                    # null-parse trees; Figure 2 presents the recognizer form,
                    # which drops it.
                    placeholder = self.compactor.raw_alt()
                    placeholder.under_construction = True
                    memo.put(current, token, placeholder)
                    results = [None, None]
                    stack.append(
                        (_FINISH_CAT_NULLABLE, current, placeholder, results, out, slot)
                    )
                    stack.append((_DERIVE, current.right, results, 1))
                    stack.append((_DERIVE, current.left, results, 0))
                    continue

                if isinstance(current, Reduce):
                    if current.lang is None:
                        raise GrammarError(
                            "derivative of an incomplete ↪→ node: {!r}".format(current)
                        )
                    reduce_placeholder = self.compactor.raw_reduce(current.fn)
                    reduce_placeholder.under_construction = True
                    memo.put(current, token, reduce_placeholder)
                    results = [None]
                    stack.append(
                        (_FINISH_REDUCE, current, reduce_placeholder, results, out, slot)
                    )
                    stack.append((_DERIVE, current.lang, results, 0))
                    continue

                if isinstance(current, Ref):
                    if current.target is None:
                        raise GrammarError(
                            "non-terminal <{}> was never resolved (Ref.set was not called)".format(
                                current.ref_name
                            )
                        )
                    ref_placeholder = self.compactor.raw_ref(current.ref_name)
                    ref_placeholder.under_construction = True
                    memo.put(current, token, ref_placeholder)
                    results = [None]
                    stack.append(
                        (_FINISH_REF, current, ref_placeholder, results, out, slot)
                    )
                    stack.append((_DERIVE, current.target, results, 0))
                    continue

                raise GrammarError("cannot derive unknown node type: {!r}".format(current))

            # ---------------------------------------------------- _FINISH_*
            _, current, placeholder, results, out, slot = entry

            if op == _FINISH_ALT:
                left, right = results
                if placeholder.observed:
                    placeholder.left = left
                    placeholder.right = right
                    placeholder.under_construction = False
                    self._name(current, placeholder, position, with_bullet=False)
                    out[slot] = placeholder
                    continue
                metrics.placeholders_discarded += 1
                result = self.compactor.make_alt(left, right)
                self._name(current, result, position, with_bullet=False)
                memo.put(current, token, result)
                out[slot] = result
                continue

            if op == _FINISH_CAT:
                left = results[0]
                if placeholder.observed:
                    placeholder.left = left
                    placeholder.under_construction = False
                    self._name(current, placeholder, position, with_bullet=False)
                    out[slot] = placeholder
                    continue
                metrics.placeholders_discarded += 1
                result = self.compactor.make_cat(left, current.right)
                self._name(current, result, position, with_bullet=False)
                memo.put(current, token, result)
                out[slot] = result
                continue

            if op == _FINISH_CAT_NULLABLE:
                left_derivative, right_derivative = results
                if placeholder.observed:
                    cat_node = self.compactor.make_cat(left_derivative, current.right)
                    self._name(current, cat_node, position, with_bullet=False)
                    null_branch = self._null_branch(current.left, right_derivative)
                    placeholder.left = cat_node
                    placeholder.right = null_branch
                    placeholder.under_construction = False
                    self._name(current, placeholder, position, with_bullet=True)
                    out[slot] = placeholder
                    continue
                metrics.placeholders_discarded += 1
                cat_node = self.compactor.make_cat(left_derivative, current.right)
                self._name(current, cat_node, position, with_bullet=False)
                null_branch = self._null_branch(current.left, right_derivative)
                result = self.compactor.make_alt(cat_node, null_branch)
                self._name(current, result, position, with_bullet=True)
                memo.put(current, token, result)
                out[slot] = result
                continue

            if op == _FINISH_REDUCE:
                child = results[0]
                if placeholder.observed:
                    placeholder.lang = child
                    placeholder.under_construction = False
                    self._name(current, placeholder, position, with_bullet=False)
                    out[slot] = placeholder
                    continue
                metrics.placeholders_discarded += 1
                result = self.compactor.make_reduce(child, current.fn)
                self._name(current, result, position, with_bullet=False)
                memo.put(current, token, result)
                out[slot] = result
                continue

            # _FINISH_REF
            target = results[0]
            if placeholder.observed:
                placeholder.target = target
                placeholder.under_construction = False
                self._name(current, placeholder, position, with_bullet=False)
                out[slot] = placeholder
                continue
            # No cycle went through the reference itself: drop the wrapper
            # and memoize the target's derivative directly.
            metrics.placeholders_discarded += 1
            self._name(current, target, position, with_bullet=False)
            memo.put(current, token, target)
            out[slot] = target

        return root_slot[0]

    def _null_branch(self, left: Language, right_derivative: Language) -> Language:
        """Build ``δ(left) ◦ Dc(right)`` for the nullable-left sequence case.

        With the new rules on, ``δ(left) ⇒ ε_t`` when ``left``'s null parses
        are exactly one finite tree ``t``; the ``ε_s ◦ p`` and reduction
        fusion rules then fold the finished history into one ``↪`` node
        (see :mod:`repro.core.compaction`).  A tree-free compactor builds
        ``δ(left)`` as its unit ``ε`` outright, so the :meth:`null_trees`
        walk (and its memo) is skipped.
        """
        if right_derivative is EMPTY or isinstance(right_derivative, Empty):
            # The freshly computed derivative is known to be ∅, so the whole
            # branch contributes nothing (this does not violate the
            # Section 4.3.1 rule about right children: no inspection of a
            # pre-existing grammar node is involved).
            return EMPTY
        compactor = self.compactor
        config = compactor.config
        if config.enabled and config.new_rules and compactor.keeps_trees:
            trees = self.null_trees(left)
            if trees is not None and len(trees) == 1:
                # δ(L) ⇒ ε_t
                self.metrics.compaction_rewrites += 1
                return compactor.make_cat(compactor.make_epsilon(trees), right_derivative)
        return compactor.make_cat(compactor.make_delta(left), right_derivative)

    def null_trees(self, node: Language) -> Optional[tuple]:
        """The null parses of a nullable ``node`` when there is at most one.

        Returns ``()`` for no tree, ``(t,)`` for exactly one finite tree
        ``t``, and None for several trees or a cyclic nullable region.  One
        iterative walk over the nullable region: an ``∪`` with two nullable
        sides, an ``ε`` carrying several trees, or a cycle (least-fixed-point
        nullability only allows one through a two-sided ``∪``) answers None,
        and None reaches every node above it.  Answers are memoized until
        :meth:`clear_null_trees`; they stay valid because derivation never
        changes an existing node's nullable region (pruning only rewrites
        unproductive, hence non-nullable, children).
        """
        memo = self._null_trees
        nullable = self.nullability.nullable
        # (node, None) asks for a node's answer; (node, children) combines
        # its children's answers.  The combine entries still on the stack
        # are the walk path, held in the memo as _ON_PATH.
        stack: List[Tuple[Language, Optional[tuple]]] = [(node, None)]
        while stack:
            current, children = stack.pop()
            if children is None:
                hit = memo.get(id(current))
                if hit is not None:
                    if hit[1] is None or hit[1] is _ON_PATH:
                        break  # several trees below, or a cycle
                    continue
                if isinstance(current, Epsilon):
                    if len(current.trees) > 1:
                        break
                    memo[id(current)] = (current, current.trees)
                    continue
                if isinstance(current, Alt):
                    left_nullable = nullable(current.left)
                    if left_nullable and nullable(current.right):
                        break
                    children = (current.left,) if left_nullable else (current.right,)
                elif isinstance(current, Cat):
                    children = (current.left, current.right)
                elif isinstance(current, (Reduce, Delta)):
                    children = (current.lang,)
                elif isinstance(current, Ref):
                    children = (current.target,)
                else:
                    break
                memo[id(current)] = (current, _ON_PATH)
                stack.append((current, children))
                stack.extend((child, None) for child in children)
                continue
            trees = memo[id(children[0])][1]
            if isinstance(current, Cat):
                right = memo[id(children[1])][1]
                trees = ((trees[0], right[0]),) if trees and right else ()
            elif isinstance(current, Reduce):
                trees = tuple(current.fn(tree) for tree in trees)
            memo[id(current)] = (current, trees)
        else:
            return memo[id(node)][1]
        # ``current`` and every node on the walk path above it answer None.
        memo[id(current)] = (current, None)
        for member, children in stack:
            if children is not None:
                memo[id(member)] = (member, None)
        return None

    # ----------------------------------------------------------------- naming
    def _name(self, parent: Language, child: Language, position: int, with_bullet: bool) -> None:
        if self.naming is not None:
            self.naming.name_derivative(parent, child, position, with_bullet)
