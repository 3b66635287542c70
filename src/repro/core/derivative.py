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

Cycles are handled as described in Section 2.5.2, with the partially
constructed node built lazily: before descending into a composite node's
children, ``derive`` writes an *in-progress frame* into the memo table.  A
child lookup that finds the frame is the cycle; only then is a placeholder
node built, kept in the frame and returned to every later lookup of the
step.  After the children's derivatives are available, either

* the frame holds a placeholder (there really was a cycle) — its children
  are filled in place and no compaction is attempted (the "punt on cycle"
  rule of Section 4.3.3), or
* it holds none — the result is built through the compaction smart
  constructors (Section 4.3), and no placeholder was ever allocated.

Either way the result replaces the frame in the memo.

**Each step settles where it ends.**  The smart constructors give most nodes
their final ``state`` — emptiness and nullability in one value — at birth
(:mod:`repro.core.compaction`).  They log the rest — a node left undecided,
a node built over an undecided child, and every cycle placeholder — and
when the outermost ``derive`` finishes, :meth:`Deriver._settle_step` runs
one solve of :mod:`repro.core.nullability` over that log.  With compaction
on it then cuts each logged node's dead children to ``∅``, so a branch that
died in this step ("zombie" in :mod:`repro.core.prune`) is never derived
again, and the ``◦`` rule reads its left child's nullability straight from
the final ``state`` field.  A step whose result is dead returns ``∅``
itself, even when it built nothing (a memo hit on a derivative an earlier
parse already settled dead), so a stream fails at exactly the token that
killed it.  A step that builds only nodes final at birth solves nothing.

The traversal itself is **iterative**: grammar graphs derived from long
inputs can be as deep as the input (hundreds of thousands of nodes on a
right-recursive chain), so ``derive`` runs a small virtual machine over an
explicit stack of pending nodes and suspended continuations instead of
recursing on the interpreter stack, dispatching on each node's exact class,
most frequent first.  No ``sys.setrecursionlimit`` escape hatch is needed.

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
    DEAD,
    EMPTY,
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
    token_value,
)
from .memo import MISS, DeriveMemo, SingleEntryMemo
from .metrics import Metrics
from .naming import NamingScheme
from .nullability import NullabilityAnalyzer
from .prune import cut_dead_children

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
        suspended composite node, its in-progress frame (the memo entry that
        a cyclic lookup finds, holding the children's result slots).  Left
        children are always expanded to completion before right children,
        matching the order (and therefore the memoization, naming and
        metrics behaviour) of the recursive formulation.
        """
        memo_get, memo_put = self.memo.get, self.memo.put
        compactor, naming = self.compactor, self.naming
        calls = hits = uncached = 0
        root_slot: List[Optional[Language]] = [None]
        # Each stack entry is (opcode, node, out, slot) for _DERIVE or
        # (opcode, node, frame, out, slot) for _FINISH_*.  A frame is
        # [placeholder-or-None, opcode, left result, right result].
        stack: List[Tuple] = [(_DERIVE, node, root_slot, 0)]

        try:
            while stack:
                entry = stack.pop()
                op = entry[0]

                if op == _DERIVE:
                    _, current, out, slot = entry
                    calls += 1
                    if current is EMPTY:
                        # Dc(∅) = ∅.  ∅ is the one node every graph shares,
                        # so no memo ever writes to it.
                        out[slot] = EMPTY
                        continue
                    cached = memo_get(current, token)
                    if cached is not MISS:
                        hits += 1
                        if cached.__class__ is list:
                            # A lookup that finds an in-progress frame is
                            # exactly the cycle case of Section 2.5.2.
                            frame = cached
                            cached = frame[0]
                            if cached is None:
                                cached = self._cycle_placeholder(current, frame)
                        out[slot] = cached
                        continue
                    uncached += 1
                    cls = current.__class__

                    if cls is Ref:
                        target = current.target
                        if target is None:
                            raise GrammarError(
                                "non-terminal <{}> was never resolved "
                                "(Ref.set was not called)".format(current.ref_name)
                            )
                        frame = [None, _FINISH_REF, None]
                        memo_put(current, token, frame)
                        stack.append((_FINISH_REF, current, frame, out, slot))
                        stack.append((_DERIVE, target, frame, 2))

                    elif cls is Cat:
                        left, right = current.left, current.right
                        if left is None or right is None:
                            raise GrammarError(
                                "derivative of an incomplete ◦ node: {!r}".format(current)
                            )
                        # Final unless nothing has settled the grammar yet.
                        state = left.state
                        if state is None:
                            state = self.nullability.state(left)
                        if state != NULLABLE:
                            # Dc(L1 ◦ L2) = Dc(L1) ◦ L2
                            frame = [None, _FINISH_CAT, None]
                            memo_put(current, token, frame)
                            stack.append((_FINISH_CAT, current, frame, out, slot))
                            stack.append((_DERIVE, left, frame, 2))
                        else:
                            # Dc(L1 ◦ L2) = (Dc(L1) ◦ L2) ∪ (δ(L1) ◦ Dc(L2)) —
                            # the duplication case tracked by the naming
                            # argument (Rule 5b) with the • symbol.  The δ(L1)
                            # factor keeps L1's null-parse trees; Figure 2
                            # presents the recognizer form, which drops it.
                            frame = [None, _FINISH_CAT_NULLABLE, None, None]
                            memo_put(current, token, frame)
                            stack.append((_FINISH_CAT_NULLABLE, current, frame, out, slot))
                            stack.append((_DERIVE, right, frame, 3))
                            stack.append((_DERIVE, left, frame, 2))

                    elif cls is Alt:
                        left, right = current.left, current.right
                        if left is None or right is None:
                            raise GrammarError(
                                "derivative of an incomplete ∪ node: {!r}".format(current)
                            )
                        frame = [None, _FINISH_ALT, None, None]
                        memo_put(current, token, frame)
                        stack.append((_FINISH_ALT, current, frame, out, slot))
                        stack.append((_DERIVE, right, frame, 3))
                        stack.append((_DERIVE, left, frame, 2))

                    elif cls is Reduce:
                        if current.lang is None:
                            raise GrammarError(
                                "derivative of an incomplete ↪→ node: {!r}".format(current)
                            )
                        frame = [None, _FINISH_REDUCE, None]
                        memo_put(current, token, frame)
                        stack.append((_FINISH_REDUCE, current, frame, out, slot))
                        stack.append((_DERIVE, current.lang, frame, 2))

                    elif cls is Token:
                        if current.matches(token):
                            result: Language = compactor.make_epsilon((token_value(token),))
                            if naming is not None:
                                naming.name_derivative(current, result, position, False)
                        else:
                            result = EMPTY
                        memo_put(current, token, result)
                        out[slot] = result

                    elif cls is Epsilon or cls is Delta or cls is Empty:
                        # Dc(ε) = Dc(δ(L)) = ∅ (and Dc(∅) of a private ∅ node).
                        memo_put(current, token, EMPTY)
                        out[slot] = EMPTY

                    else:
                        raise GrammarError(
                            "cannot derive unknown node type: {!r}".format(current)
                        )
                    continue

                # ------------------------------------------------ _FINISH_*
                # A frame that a cycle looked up holds its placeholder, which
                # is filled in place (no compaction: the "punt on cycle" rule
                # of Section 4.3.3); otherwise the smart constructors build
                # the result.  Either way the result replaces the frame in
                # the memo.
                _, current, frame, out, slot = entry
                placeholder = frame[0]

                if op == _FINISH_REF:
                    if placeholder is None:
                        # No cycle went through the reference itself: drop
                        # the wrapper and memoize the target's derivative.
                        result = frame[2]
                    else:
                        placeholder.target = frame[2]
                        placeholder.under_construction = False
                        result = placeholder

                elif op == _FINISH_CAT:
                    if placeholder is None:
                        result = compactor.make_cat(frame[2], current.right)
                    else:
                        placeholder.left = frame[2]
                        placeholder.under_construction = False
                        result = placeholder

                elif op == _FINISH_ALT:
                    if placeholder is None:
                        result = compactor.make_alt(frame[2], frame[3])
                    else:
                        placeholder.left = frame[2]
                        placeholder.right = frame[3]
                        placeholder.under_construction = False
                        result = placeholder

                elif op == _FINISH_REDUCE:
                    if placeholder is None:
                        result = compactor.make_reduce(frame[2], current.fn)
                    else:
                        placeholder.lang = frame[2]
                        placeholder.under_construction = False
                        result = placeholder

                else:  # _FINISH_CAT_NULLABLE
                    cat_node = compactor.make_cat(frame[2], current.right)
                    if naming is not None:
                        naming.name_derivative(current, cat_node, position, False)
                    null_branch = self._null_branch(current.left, frame[3])
                    if placeholder is None:
                        result = compactor.make_alt(cat_node, null_branch)
                    else:
                        placeholder.left = cat_node
                        placeholder.right = null_branch
                        placeholder.under_construction = False
                        result = placeholder

                if naming is not None:
                    naming.name_derivative(
                        current, result, position, op == _FINISH_CAT_NULLABLE
                    )
                memo_put(current, token, result)
                out[slot] = result
        finally:
            metrics = self.metrics
            metrics.derive_calls += calls
            metrics.derive_cache_hits += hits
            metrics.derive_uncached += uncached

        return self._settle_step(root_slot[0])

    def _settle_step(self, result: Language) -> Language:
        """Settle the nodes this step left undecided; ∅ if ``result`` is dead.

        The compactor logged every node it built undecided or over an
        undecided child, and every placeholder.  One solve decides them, and
        with compaction on their dead children are cut to ``∅``
        (:func:`repro.core.prune.cut_dead_children`), so a dead branch is
        never derived again.  ``result`` itself may be a node settled dead
        by an earlier step (a memo hit), hence the last check even when the
        step built nothing.
        """
        log = self.compactor.undecided
        if result.state is None:
            log.append(result)  # a grammar node nothing has decided yet
        if log:
            self.nullability.settle(log)
            if self.compactor.config.enabled:
                self.metrics.compaction_rewrites += cut_dead_children(log)
            log.clear()
        if result.state == DEAD:
            return EMPTY
        return result

    def _cycle_placeholder(self, current: Language, frame: list) -> Language:
        """Build the placeholder a cyclic lookup of ``current`` returns.

        Its kind follows the frame's opcode: ``∪`` (also for a nullable
        ``◦``, whose derivative is a union), ``◦`` with its right child
        preset, ``↪→`` or ``Ref``.  The frame keeps it, so every later
        lookup in this step returns the same node, and ``_FINISH_*`` fills
        it in place.
        """
        compactor = self.compactor
        op = frame[1]
        if op == _FINISH_CAT:
            placeholder: Language = compactor.raw_cat()
            placeholder.right = current.right
        elif op == _FINISH_REDUCE:
            placeholder = compactor.raw_reduce(current.fn)
        elif op == _FINISH_REF:
            placeholder = compactor.raw_ref(current.ref_name)
        else:
            placeholder = compactor.raw_alt()
        placeholder.under_construction = True
        frame[0] = placeholder
        return placeholder

    def _null_branch(self, left: Language, right_derivative: Language) -> Language:
        """Build ``δ(left) ◦ Dc(right)`` for the nullable-left sequence case.

        With the new rules on, ``δ(left) ⇒ ε_t`` when ``left``'s null parses
        are exactly one finite tree ``t``; the ``ε_s ◦ p`` and reduction
        fusion rules then fold the finished history into one ``↪`` node
        (see :mod:`repro.core.compaction`).  A tree-free compactor builds
        ``δ(left)`` as its unit ``ε`` outright, so the :meth:`null_trees`
        walk (and its memo) is skipped.
        """
        if right_derivative.state == DEAD:
            # The freshly computed derivative is known to be dead, so the
            # whole branch contributes nothing (this does not violate the
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
        changes an existing node's nullable region (dead-branch cuts only
        rewrite DEAD, hence non-nullable, children).
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
