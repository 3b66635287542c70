"""Compaction: smart constructors that simplify grammars as they are built.

Section 4.3 of the paper improves the *compaction* process of Might et al.
(2011) in three ways, all of which are implemented here:

1. The original reduction rules are kept, two overlooked rules are added
   (``∅ ↪→ f ⇒ ∅`` and ``ε_s1 ∪ ε_s2 ⇒ ε_{s1 ∪ s2}``), and one redundant
   rule is dropped.
2. Rules that inspect the *right*-hand child of a sequence node are applied
   only to the initial grammar (Section 4.3.1, Theorem 10), because
   derivatives never change the right child of a sequence.
3. Chains of sequence nodes are canonicalized to be right-associated and
   reduction nodes are floated above sequences (Section 4.3.2) so that
   ``derive`` traverses O(1) nodes per sequence chain instead of O(length).
4. Compaction happens *inline*, at node-construction time, instead of as a
   separate pass between derivatives (Section 4.3.3).  When the structure of
   a child is not yet known — the child is a partially-constructed node that
   is part of a cycle — the smart constructor simply punts and builds the
   uncompacted form.  Rules test a child's exact class; only the deriver's
   ``∪``/``◦``/``↪→``/reference placeholders are ever ``under_construction``,
   so only the rules that look inside a ``◦`` or ``↪→`` child test the flag.

The :class:`Compactor` exposes one ``make_*`` method per grammar form;
:class:`CompactionConfig` switches off the rules this paper adds, or every
rule, so the ablation benchmarks can measure the contribution of each group
of rules.

This repository adds one rule of its own, grouped with the paper's new
rules: **``δ(L) ⇒ ε_t`` when the null parses of ``L`` are exactly one finite
tree ``t``**.  The derivative of a sequence with a nullable left child keeps
``δ(L1) ◦ Dc(L2)``, and no paper rule ever folds that δ-history, so every
later token derives it again and the live grammar grows with the input.
The deriver applies the fold where it builds that branch
(:meth:`repro.core.derivative.Deriver.null_trees` answers the single-tree
question); the rules ``ε_s ◦ p ⇒ p ↪→ λu.(s,u)`` and reduction fusion then
collapse the finished history into one ``↪→`` node.  An ambiguous, cyclic or
multi-tree null region keeps its ``δ``, so forests and counts are unchanged.

**Recognition-only derivation.**  :class:`TreeFreeCompactor` is the
compactor of the compiled table's deriver.  The table only ever asks its
states whether they accept; trees come from an interpreted parser over the
same grammar.  So the tree-free compactor builds every ``ε`` as one unit
tree, drops every reduction (after ``∅ ↪→ f ⇒ ∅``) and builds ``δ(L)`` as
that unit ``ε`` (the deriver only asks for ``δ`` of a nullable ``L``).
Derived states then carry no payload that differs between two inputs with
the same future, which is what lets the table's canonical key share them:
structurally identical nodes are shared there, by
:class:`repro.compile.automaton.GrammarTable`, and nowhere else.

The smart constructors also **settle** what they build (:func:`_settle`):
a node whose children already carry a final ``state`` gets its own at
construction, on the chain ``DEAD < LIVE < NULLABLE`` of
:mod:`repro.core.nullability` — ``∪`` is the max of its children, ``◦``
the min, ``↪`` copies its child, and ``δ(L)`` is NULLABLE when ``L`` is
and DEAD otherwise.  An undecided child leaves the node undecided, unless
the other side decides it: ``∪`` with a NULLABLE side is NULLABLE, and
``◦`` with a DEAD side is DEAD.  A value computed from final children is
exact, so the fixed-point kernel (Section 4.2) only ever sees what really
needs a fixed point: the cyclic placeholders the deriver fills in place and
the nodes built over them.  The raw constructors never settle: a
placeholder or a hand-built grammar node may still gain children, and an
eagerly final parent would hide the unsolved region below it from the
solver.

What the constructors cannot decide they log (:attr:`Compactor.undecided`):
every placeholder, every node left undecided and every node built over an
undecided child (a child that may yet prove dead).  The deriver settles
the log when its step ends and cuts the dead children it finds
(:mod:`repro.core.derivative`).  A child already settled DEAD counts as
``∅`` in every rule: ``∅ ∪ p``, ``∅ ◦ p``, ``∅ ↪→ f`` and ``δ(∅)`` fold
it away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

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
    reachable_nodes,
)
from .forest import trees_equal
from .metrics import Metrics
from .reductions import (
    Identity,
    MapFirst,
    MapSecond,
    PairLeft,
    PairRight,
    ReassocToLeft,
    compose,
)

__all__ = ["CompactionConfig", "Compactor", "TreeFreeCompactor", "optimize_initial_grammar"]


@dataclass
class CompactionConfig:
    """Which compaction rules the smart constructors apply.

    Three settings exist — :meth:`full`, :meth:`original_2011` and
    :meth:`disabled` — and two flags tell them apart.

    Attributes
    ----------
    enabled:
        Master switch, and the rules of Might et al. (2011): ``∅ ∪ p ⇒ p``,
        ``p ∪ ∅ ⇒ p``, ``∅ ◦ p ⇒ ∅``, ``ε_s ◦ p ⇒ p ↪→ λu.(s,u)``,
        ``ε_s ↪→ f ⇒ ε_{f(s)}`` and ``(p ↪→ f) ↪→ g ⇒ p ↪→ (g ∘ f)``.
        When False the smart constructors degenerate to the plain node
        constructors (the paper's "without compaction" setting, reported
        in Section 2.6 to be ~90× slower).
    new_rules:
        The rules this paper adds on top: ``∅ ↪→ f ⇒ ∅``,
        ``ε_s1 ∪ ε_s2 ⇒ ε_{s1∪s2}`` and the Section 4.3.2 rules
        ``(p1 ◦ p2) ◦ p3 ⇒ ...`` and ``(p1 ↪→ f) ◦ p2 ⇒ (p1 ◦ p2) ↪→ ...``
        — plus this repository's extension ``δ(L) ⇒ ε_t`` when ``L``'s
        null parses are exactly one finite tree ``t`` (applied by the
        deriver; see the module docstring).  Off in :meth:`disabled` and
        :meth:`original_2011`, so the 2011 baseline builds what it always
        built.
    """

    enabled: bool = True
    new_rules: bool = True

    @classmethod
    def disabled(cls) -> "CompactionConfig":
        """Compaction completely off (original parser without compaction)."""
        return cls(enabled=False, new_rules=False)

    @classmethod
    def original_2011(cls) -> "CompactionConfig":
        """Only the rules present in Might et al. (2011)."""
        return cls(enabled=True, new_rules=False)

    @classmethod
    def full(cls) -> "CompactionConfig":
        """Every rule described in Section 4.3 (the improved parser default)."""
        return cls()


def _settle(node: Language, log: list) -> Language:
    """Give a node the smart constructors just built its final ``state``,
    wherever it follows from its children's (the rules are in the module
    docstring), and log it when it or a child is still undecided."""
    cls = node.__class__
    if cls is Alt or cls is Cat:
        left, right = node.left.state, node.right.state
        if left is None or right is None:
            # ∪ is max and ◦ is min, so one side at the top (∪) or at the
            # bottom (◦) of the chain decides the node on its own.
            decisive = NULLABLE if cls is Alt else DEAD
            state = decisive if left == decisive or right == decisive else None
            log.append(node)
        elif cls is Alt:
            state = left if left > right else right
        else:
            state = left if left < right else right
    else:
        state = node.lang.state
        if state is None:
            log.append(node)
        elif cls is Delta and state != NULLABLE:
            state = DEAD
    node.state = state
    return node


class Compactor:
    """Smart constructors implementing the reduction rules of Section 4.3."""

    #: Whether the nodes built here carry parse trees (module docstring).
    keeps_trees = True

    def __init__(
        self,
        config: Optional[CompactionConfig] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.config = config if config is not None else CompactionConfig.full()
        self.metrics = metrics if metrics is not None else Metrics()
        #: Nodes built since the deriver last settled a step that are
        #: undecided or sit over an undecided child (:func:`_settle`), and
        #: the placeholders of the raw builders.
        self.undecided: list = []

    # ----------------------------------------------------------- primitives
    def _count_rewrite(self) -> None:
        self.metrics.compaction_rewrites += 1

    # -------------------------------------------------------------- epsilon
    def make_epsilon(self, trees: Iterable[Any]) -> Epsilon:
        """Construct an ``ε`` node carrying ``trees``."""
        self.metrics.nodes_created += 1
        return Epsilon(tuple(trees))

    # ------------------------------------------------------------------ alt
    def make_alt(self, left: Language, right: Language) -> Language:
        """Construct ``left ∪ right``, applying the union reduction rules."""
        cfg = self.config
        if cfg.enabled:
            if left.state == DEAD:
                self._count_rewrite()
                return right
            if right.state == DEAD:
                self._count_rewrite()
                return left
            if cfg.new_rules and left.__class__ is Epsilon and right.__class__ is Epsilon:
                # ε_s1 ∪ ε_s2 ⇒ ε_{s1 ∪ s2} (one of the paper's added rules)
                self._count_rewrite()
                return self.make_epsilon(_merge_trees(left.trees, right.trees))
        self.metrics.nodes_created += 1
        return _settle(Alt(left, right), self.undecided)

    # ------------------------------------------------------------------ cat
    def make_cat(self, left: Language, right: Language) -> Language:
        """Construct ``left ◦ right``, applying the sequence reduction rules.

        Only rules that inspect the *left* child are applied here; the
        right-child rules are restricted to the initial grammar
        (:func:`optimize_initial_grammar`), per Section 4.3.1.
        """
        cfg = self.config
        if cfg.enabled:
            if left.state == DEAD:
                # ∅ ◦ p ⇒ ∅
                self._count_rewrite()
                return EMPTY
            cls = left.__class__
            if cls is Epsilon and len(left.trees) == 1:
                # ε_s ◦ p ⇒ p ↪→ λu.(s, u)
                self._count_rewrite()
                return self.make_reduce(right, PairLeft(left.trees[0]))
            if cfg.new_rules and not left.under_construction:
                if cls is Reduce and left.lang is not None:
                    # (p1 ↪→ f) ◦ p2 ⇒ (p1 ◦ p2) ↪→ λ(t1,t2).(f(t1), t2)
                    self._count_rewrite()
                    return self.make_reduce(
                        self.make_cat(left.lang, right), MapFirst(left.fn)
                    )
                if cls is Cat and left.left is not None and left.right is not None:
                    # (p1 ◦ p2) ◦ p3 ⇒ (p1 ◦ (p2 ◦ p3)) ↪→ reassociate
                    self._count_rewrite()
                    inner = self.make_cat(left.right, right)
                    return self.make_reduce(self.make_cat(left.left, inner), ReassocToLeft())
        self.metrics.nodes_created += 1
        return _settle(Cat(left, right), self.undecided)

    # --------------------------------------------------------------- reduce
    def make_reduce(self, lang: Language, fn: Callable[[Any], Any]) -> Language:
        """Construct ``lang ↪→ fn``, applying the reduction-node rules."""
        cfg = self.config
        if cfg.enabled:
            if cfg.new_rules and lang.state == DEAD:
                # ∅ ↪→ f ⇒ ∅ (one of the paper's added rules)
                self._count_rewrite()
                return EMPTY
            cls = lang.__class__
            if cls is Epsilon:
                # ε_s ↪→ f ⇒ ε_{f(s)}
                self._count_rewrite()
                return self.make_epsilon(tuple(fn(tree) for tree in lang.trees))
            if cls is Reduce and not lang.under_construction and lang.lang is not None:
                # (p ↪→ f) ↪→ g ⇒ p ↪→ (g ∘ f)
                self._count_rewrite()
                return self.make_reduce(lang.lang, compose(fn, lang.fn))
            if fn.__class__ is Identity:
                return lang
        self.metrics.nodes_created += 1
        return _settle(Reduce(lang, fn), self.undecided)

    # ---------------------------------------------------------------- delta
    def make_delta(self, lang: Language) -> Language:
        """Construct ``δ(lang)`` — the null-parse projection of ``lang``.

        When the null parses of ``lang`` are already syntactically evident —
        ``lang`` is an ``ε`` node, or itself a ``δ`` node — the existing node
        is reused instead of wrapping it again.
        """
        cfg = self.config
        if cfg.enabled:
            if lang.__class__ is Epsilon or lang.__class__ is Delta:
                self._count_rewrite()
                return lang
            if lang.state == DEAD:
                self._count_rewrite()
                return EMPTY
        self.metrics.nodes_created += 1
        return _settle(Delta(lang), self.undecided)

    # ---------------------------------------------------------- raw builders
    def raw_alt(self) -> Alt:
        """Construct an empty (placeholder) ``∪`` node without compaction."""
        return self._placeholder(Alt(None, None))

    def raw_cat(self) -> Cat:
        """Construct an empty (placeholder) ``◦`` node without compaction."""
        return self._placeholder(Cat(None, None))

    def raw_reduce(self, fn: Callable[[Any], Any]) -> Reduce:
        """Construct a placeholder ``↪→`` node without compaction."""
        return self._placeholder(Reduce(None, fn))

    def raw_ref(self, ref_name: str) -> Ref:
        """Construct a placeholder non-terminal reference without compaction."""
        return self._placeholder(Ref(ref_name, None))

    def _placeholder(self, node: Language) -> Any:
        """Count a placeholder and log it: it is undecided until settled."""
        self.metrics.nodes_created += 1
        self.metrics.placeholders_created += 1
        self.undecided.append(node)
        return node


#: The one tree every :class:`TreeFreeCompactor` ε carries.
_UNIT_TREES = ((),)


class TreeFreeCompactor(Compactor):
    """Smart constructors for recognition-only derivation (module docstring).

    Every ``ε`` is the unit ``ε``, ``L ↪→ f`` is ``L`` and ``δ(L)`` is the
    unit ``ε``.  Recognition is unchanged: a reduction never changes which
    words a language has, and the deriver builds ``δ(L)`` only for a
    nullable ``L``, where it denotes exactly the empty word.  Never use it
    to optimize a grammar that trees are read from.
    """

    #: The deriver skips its single-null-tree fold (``δ(L) ⇒ ε_t``) for a
    #: compactor that keeps no trees: ``make_delta`` already builds the ε.
    keeps_trees = False

    def make_epsilon(self, trees: Iterable[Any]) -> Epsilon:
        """The unit ``ε``, whatever trees were asked for."""
        return super().make_epsilon(_UNIT_TREES)

    def make_reduce(self, lang: Language, fn: Callable[[Any], Any]) -> Language:
        """``lang`` itself: ``∅ ↪→ f ⇒ ∅``, and otherwise the reduction is dropped."""
        if lang.state == DEAD:
            self._count_rewrite()
            return EMPTY
        return lang

    def make_delta(self, lang: Language) -> Language:
        """The unit ``ε`` (``lang`` is nullable wherever the deriver asks)."""
        return self.make_epsilon(_UNIT_TREES)


def _merge_trees(left: tuple, right: tuple) -> tuple:
    """Union two tree tuples, preserving order and dropping duplicates.

    Uses depth-safe structural equality: the merged trees come from parses
    of arbitrarily long inputs, so ``==`` on them could blow the C stack.
    """
    merged = list(left)
    for tree in right:
        if not any(trees_equal(tree, existing) for existing in merged):
            merged.append(tree)
    return tuple(merged)


def optimize_initial_grammar(
    root: Language,
    compactor: Optional[Compactor] = None,
    max_passes: int = 25,
) -> Language:
    """Apply every compaction rule — including right-child rules — to a grammar.

    Section 4.3.1 proves (Theorem 10) that the forms ``p ◦ ε`` and ``p ◦ ∅``
    cannot arise during parsing unless the initial grammar contains them, so
    the rules rewriting them (and the right-hand reduction-floating rule of
    Section 4.3.2) are applied once, here, before parsing starts.  This frees
    ``derive`` from ever inspecting the right child of a sequence node.

    The grammar graph may be cyclic, so the rewrite runs as a small fixpoint:
    each pass examines every reachable node and replaces children whose local
    structure matches a rule; passes repeat until nothing changes (or
    ``max_passes`` is hit, which only happens for adversarial inputs).
    """
    compactor = compactor if compactor is not None else Compactor()
    for _ in range(max_passes):
        changed = False
        cache: dict[int, Language] = {}
        new_root = _rewrite_initial(root, compactor, cache)
        if new_root is not root:
            root = new_root
            changed = True
        for node in reachable_nodes(root):
            if isinstance(node, (Alt, Cat)):
                if node.left is not None:
                    new_left = _rewrite_initial(node.left, compactor, cache)
                    if new_left is not node.left:
                        node.left = new_left
                        changed = True
                if node.right is not None:
                    new_right = _rewrite_initial(node.right, compactor, cache)
                    if new_right is not node.right:
                        node.right = new_right
                        changed = True
            elif isinstance(node, Reduce):
                if node.lang is not None:
                    new_lang = _rewrite_initial(node.lang, compactor, cache)
                    if new_lang is not node.lang:
                        node.lang = new_lang
                        changed = True
            elif isinstance(node, Ref):
                if node.target is not None:
                    new_target = _rewrite_initial(node.target, compactor, cache)
                    if new_target is not node.target:
                        node.target = new_target
                        changed = True
        if not changed:
            break
    # Grammar nodes are decided on first query, not at a derive step's end.
    compactor.undecided.clear()
    return root


def _rewrite_initial(node: Language, compactor: Compactor, cache: dict[int, Language]) -> Language:
    """Rewrite a single node using the full (initial-grammar) rule set.

    Shared children are rewritten once per pass (``cache`` preserves sharing).
    The function only constructs new nodes when a rule actually applies.
    """
    cached = cache.get(id(node))
    if cached is not None:
        return cached
    result = _rewrite_initial_uncached(node, compactor, cache)
    cache[id(node)] = result
    return result


def _rewrite_initial_uncached(
    node: Language, compactor: Compactor, cache: dict[int, Language]
) -> Language:
    cfg = compactor.config
    if not cfg.enabled:
        return node

    if isinstance(node, Alt) and node.left is not None and node.right is not None:
        left, right = node.left, node.right
        if isinstance(left, Empty):
            compactor._count_rewrite()
            return right
        if isinstance(right, Empty):
            compactor._count_rewrite()
            return left
        if cfg.new_rules and isinstance(left, Epsilon) and isinstance(right, Epsilon):
            compactor._count_rewrite()
            return compactor.make_epsilon(_merge_trees(left.trees, right.trees))
        return node

    if isinstance(node, Reduce) and node.lang is not None:
        lang = node.lang
        if cfg.new_rules and isinstance(lang, Empty):
            compactor._count_rewrite()
            return EMPTY
        if isinstance(lang, Epsilon):
            compactor._count_rewrite()
            return compactor.make_epsilon(tuple(node.fn(tree) for tree in lang.trees))
        if isinstance(lang, Reduce) and lang.lang is not None:
            compactor._count_rewrite()
            return compactor.make_reduce(lang.lang, compose(node.fn, lang.fn))
        return node

    if isinstance(node, Cat) and node.left is not None and node.right is not None:
        left, right = node.left, node.right
        # Left-child rules (also applied during parsing).
        if isinstance(left, Empty):
            compactor._count_rewrite()
            return EMPTY
        if isinstance(left, Epsilon) and len(left.trees) == 1:
            compactor._count_rewrite()
            return compactor.make_reduce(right, PairLeft(left.trees[0]))
        # Right-child rules (initial grammar only, Section 4.3.1).
        if isinstance(right, Empty):
            compactor._count_rewrite()
            return EMPTY
        if isinstance(right, Epsilon) and len(right.trees) == 1:
            compactor._count_rewrite()
            return compactor.make_reduce(left, PairRight(right.trees[0]))
        if cfg.new_rules and isinstance(left, Reduce) and left.lang is not None:
            compactor._count_rewrite()
            return compactor.make_reduce(compactor.make_cat(left.lang, right), MapFirst(left.fn))
        if cfg.new_rules and isinstance(right, Reduce) and right.lang is not None:
            compactor._count_rewrite()
            return compactor.make_reduce(
                compactor.make_cat(left, right.lang), MapSecond(right.fn)
            )
        if cfg.new_rules and isinstance(left, Cat) and left.left is not None:
            compactor._count_rewrite()
            inner = compactor.make_cat(left.right, right)
            return compactor.make_reduce(compactor.make_cat(left.left, inner), ReassocToLeft())
        return node

    return node
