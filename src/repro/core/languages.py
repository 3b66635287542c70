"""Parsing-expression language nodes.

This module defines the grammar representation of Sections 2.2 and 2.5 of
Adams, Hollenbeck & Might (PLDI 2016): a small family of parsing-expression
forms whose instances are linked into a *graph* (cycles encode recursive
non-terminals, exactly as in Figure 4 of the paper).

The forms are:

=============  =====================  ==========================================
Paper form     Class                  Meaning
=============  =====================  ==========================================
``∅``          :class:`Empty`         the empty language (no words)
``ε_s``        :class:`Epsilon`       the empty word, annotated with parse trees
``c``          :class:`Token`         a single terminal token
``L1 ◦ L2``    :class:`Cat`           concatenation
``L1 ∪ L2``    :class:`Alt`           alternation
``L ↪→ f``     :class:`Reduce`        semantic-action / reduction node
``N = ...``    :class:`Ref`           a named non-terminal reference
=============  =====================  ==========================================

Nodes are *mutable in a restricted way*: the children of :class:`Alt`,
:class:`Cat`, :class:`Reduce` and the target of :class:`Ref` may be assigned
after construction.  This is how cyclic grammars are tied together and how the
derivative function fills in the partially-constructed result a cycle looked
up (Section 2.5.2 of the paper).

Each node also has one analysis field, ``state``: where its language sits on
the chain ``DEAD < LIVE < NULLABLE`` (no word, some words but not the empty
one, the empty word).  Leaves are born with it; composites get it from the
smart constructors or the fixed-point kernel (:mod:`repro.core.nullability`).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = [
    "Language",
    "Empty",
    "Epsilon",
    "Token",
    "Alt",
    "Cat",
    "Reduce",
    "Delta",
    "Ref",
    "EMPTY",
    "epsilon",
    "token",
    "any_token",
    "reachable_nodes",
    "graph_size",
    "iter_children",
    "terminal_nodes",
    "structural_fingerprint",
    "clone_graph",
]


_NODE_IDS = itertools.count()

#: Final ``state`` values, on the chain ``DEAD < LIVE < NULLABLE``
#: (:mod:`repro.core.nullability`): the node's language has no word, has
#: words but not the empty one, or has the empty word.
DEAD = 0
LIVE = 1
NULLABLE = 2


class Language:
    """Base class for all parsing-expression nodes.

    Every node carries:

    * ``node_id`` — a monotonically increasing identifier (used for stable
      ordering and debugging; nodes hash and compare by identity),
    * ``name`` — an optional :class:`repro.core.naming.NodeName` assigned by
      the naming instrumentation of Definition 5,
    * private slots used by the nullability analysis and the single-entry
      memoization of ``derive`` (Section 4.4 stores memo results in node
      fields rather than hash tables; those fields live here),
    * ``state`` — the node's final place on the ``DEAD < LIVE < NULLABLE``
      chain (emptiness and nullability in one value), or None while
      undecided.  Leaves are born final; the smart constructors of
      :mod:`repro.core.compaction` settle composites whose children are
      final, and the fixed-point kernel promotes the rest (Section 4.2).
    """

    __slots__ = (
        "node_id",
        "name",
        "under_construction",
        # the compiled-automaton table (repro.compile), anchored on the
        # grammar root in the node-resident idiom of the memo fields below:
        # the grammar owns its table and every parser built over this root
        # shares it; the table derives on its own copy of the grammar, so
        # it is freed with the root
        "compiled_table",
        # single-entry derive memo (Section 4.4)
        "memo_epoch",
        "memo_token",
        "memo_result",
        # the grammar's own nodes keep every token's derivative
        # (repro.core.memo.SingleEntryMemo); None on derived nodes
        "memo_tokens",
        # per-node dict memo (the "full hash table" strategy of Section 4.4);
        # holds an owner→table dict so memo instances sharing the graph keep
        # disjoint entries and never evict each other
        "memo_table",
        # final emptiness and nullability (Section 4.2)
        "state",
        # parse-null memo
        "null_parse_epoch",
        "null_parse_result",
    )

    def __init__(self) -> None:
        self.node_id = next(_NODE_IDS)
        self.name = None
        self.under_construction = False
        self.compiled_table = None
        self.memo_epoch = -1
        self.memo_token = None
        self.memo_result = None
        self.memo_tokens = None
        self.memo_table = None
        self.state = None
        self.null_parse_epoch = -1
        self.null_parse_result = None

    # -- structure ---------------------------------------------------------
    def children(self) -> tuple["Language", ...]:
        """Return the direct children of this node (possibly empty)."""
        return ()

    # -- convenience combinators -------------------------------------------
    def __or__(self, other: "Language") -> "Alt":
        return Alt(self, as_language(other))

    def __ror__(self, other: "Language") -> "Alt":
        return Alt(as_language(other), self)

    def __add__(self, other: "Language") -> "Cat":
        return Cat(self, as_language(other))

    def __radd__(self, other: "Language") -> "Cat":
        return Cat(as_language(other), self)

    def map(self, fn: Callable[[Any], Any]) -> "Reduce":
        """Return ``self ↪→ fn`` — apply ``fn`` to every parse tree."""
        return Reduce(self, fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "{}#{}".format(type(self).__name__, self.node_id)

    def describe(self) -> str:
        """A short human-readable description of the node."""
        return repr(self)


class Empty(Language):
    """The empty language ``∅`` — it contains no words at all.

    A single shared instance, :data:`EMPTY`, is used throughout; smart
    constructors and the derivative rely on identity checks against it.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.state = DEAD

    def describe(self) -> str:
        """Render the paper's ``∅`` symbol."""
        return "∅"

    def __repr__(self) -> str:
        return "Empty()"


#: The canonical empty-language instance.
EMPTY = Empty()


class Epsilon(Language):
    """The empty-word language ``ε_s``, annotated with its parse trees.

    ``trees`` is a tuple of parse results; it usually holds exactly one tree
    but may hold several when compaction merges ``ε_s1 ∪ ε_s2 ⇒ ε_{s1∪s2}``
    (one of the reduction rules added by the paper in Section 4.3).
    """

    __slots__ = ("trees",)

    def __init__(self, trees: Iterable[Any] = ((),)) -> None:
        super().__init__()
        self.trees = tuple(trees)
        self.state = NULLABLE

    def describe(self) -> str:
        """Render ``ε`` with its parse-tree annotations."""
        return "ε{}".format(list(self.trees))

    def __repr__(self) -> str:
        return "Epsilon(trees={!r})".format(self.trees)


def epsilon(tree: Any = ()) -> Epsilon:
    """Build an ``ε`` node carrying a single parse tree (default: ``()``)."""
    return Epsilon((tree,))


class Token(Language):
    """A single-terminal language ``c``.

    A token node matches an input token if:

    * ``predicate`` is given and returns true for the token, otherwise
    * ``kind`` is given and equals the token's *kind* (see
      :func:`token_kind`), otherwise
    * it matches *any* token (the paper's Figure 5 example uses a ``c`` that
      accepts every token).
    """

    __slots__ = ("kind", "predicate", "label")

    def __init__(
        self,
        kind: Any = None,
        predicate: Optional[Callable[[Any], bool]] = None,
        label: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.state = LIVE
        self.kind = kind
        self.predicate = predicate
        self.label = label if label is not None else (str(kind) if kind is not None else "<any>")

    def matches(self, tok: Any) -> bool:
        """Return True when this terminal accepts the input token ``tok``."""
        if self.predicate is not None:
            return bool(self.predicate(tok))
        if self.kind is None:
            return True
        return token_kind(tok) == self.kind

    def describe(self) -> str:
        """Render the terminal as ``tok(label)``."""
        return "tok({})".format(self.label)

    def __repr__(self) -> str:
        return "Token(kind={!r})".format(self.kind)


def token(kind: Any, label: Optional[str] = None) -> Token:
    """Build a terminal node matching tokens whose kind equals ``kind``."""
    return Token(kind=kind, label=label)


def any_token(label: str = "<any>") -> Token:
    """Build a terminal node that matches every token."""
    return Token(kind=None, predicate=None, label=label)


def token_kind(tok: Any) -> Any:
    """Return the *kind* of an input token.

    Input tokens may be:

    * plain hashable values (characters, strings, ints) — the kind is the
      value itself,
    * objects with a ``kind`` attribute (e.g. :class:`repro.lexer.tokens.Tok`),
    * ``(kind, value)`` pairs.
    """
    kind = getattr(tok, "kind", None)
    if kind is not None:
        return kind
    if isinstance(tok, tuple) and len(tok) == 2:
        return tok[0]
    return tok


def token_value(tok: Any) -> Any:
    """Return the semantic value carried by an input token (see token_kind)."""
    value = getattr(tok, "value", None)
    if value is not None:
        return value
    if isinstance(tok, tuple) and len(tok) == 2:
        return tok[1]
    return tok


class Alt(Language):
    """The alternation ``L1 ∪ L2``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Optional[Language] = None, right: Optional[Language] = None) -> None:
        super().__init__()
        self.left = left
        self.right = right

    def children(self) -> tuple[Language, ...]:
        """Return the non-None children (left, right)."""
        out = []
        if self.left is not None:
            out.append(self.left)
        if self.right is not None:
            out.append(self.right)
        return tuple(out)

    def describe(self) -> str:
        """Render the alternation with its children's node ids."""
        return "(∪ #{} #{})".format(
            getattr(self.left, "node_id", "?"), getattr(self.right, "node_id", "?")
        )


class Cat(Language):
    """The concatenation ``L1 ◦ L2``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Optional[Language] = None, right: Optional[Language] = None) -> None:
        super().__init__()
        self.left = left
        self.right = right

    def children(self) -> tuple[Language, ...]:
        """Return the non-None children (left, right)."""
        out = []
        if self.left is not None:
            out.append(self.left)
        if self.right is not None:
            out.append(self.right)
        return tuple(out)

    def describe(self) -> str:
        """Render the concatenation with its children's node ids."""
        return "(◦ #{} #{})".format(
            getattr(self.left, "node_id", "?"), getattr(self.right, "node_id", "?")
        )


class Reduce(Language):
    """The reduction ``L ↪→ f`` — every tree produced by ``L`` is mapped by ``f``."""

    __slots__ = ("lang", "fn")

    def __init__(self, lang: Optional[Language] = None, fn: Callable[[Any], Any] = None) -> None:
        super().__init__()
        self.lang = lang
        self.fn = fn if fn is not None else _identity

    def children(self) -> tuple[Language, ...]:
        """Return the wrapped language, when present."""
        return (self.lang,) if self.lang is not None else ()

    def describe(self) -> str:
        """Render the reduction with its function's name."""
        return "(↪→ #{} {})".format(getattr(self.lang, "node_id", "?"), _fn_name(self.fn))


class Delta(Language):
    """The null-parse projection ``δ(L)`` of a language.

    ``Delta(L)`` accepts exactly the empty word and yields the parse trees of
    ``L``'s empty-word parses.  It is the lazy device (used by Might et al.
    2011) that lets the derivative of a concatenation with a nullable left
    child retain the left child's parse trees::

        Dc(L1 ◦ L2) = (Dc(L1) ◦ L2) ∪ (δ(L1) ◦ Dc(L2))     when ε ∈ ⟦L1⟧

    Figure 2 of the PLDI 2016 paper presents the recognizer form of this rule
    (the ``δ(L1)`` factor carries no recognition information, so it is written
    simply as ``Dc(L2)``); the tree-producing form above is what the
    implementations actually compute.  The derivative of a ``Delta`` node is
    ``∅`` and its nullability equals the nullability of ``L``.
    """

    __slots__ = ("lang",)

    def __init__(self, lang: Optional[Language] = None) -> None:
        super().__init__()
        self.lang = lang

    def children(self) -> tuple[Language, ...]:
        """Return the wrapped language, when present."""
        return (self.lang,) if self.lang is not None else ()

    def describe(self) -> str:
        """Render the null-parse projection ``δ(L)``."""
        return "(δ #{})".format(getattr(self.lang, "node_id", "?"))


class Ref(Language):
    """A named non-terminal reference.

    The paper's representation stores non-terminals as direct pointers; a
    :class:`Ref` is a thin, named indirection that makes grammars convenient
    to build (``expr = Ref("expr"); expr.set(...)``) and keeps non-terminal
    names around for error messages and for the naming instrumentation.
    A Ref behaves exactly like its target language.
    """

    __slots__ = ("ref_name", "target")

    def __init__(self, ref_name: str, target: Optional[Language] = None) -> None:
        super().__init__()
        self.ref_name = ref_name
        self.target = target

    def set(self, target: Language) -> "Ref":
        """Resolve this reference to ``target`` and return ``self``."""
        self.target = as_language(target)
        return self

    def children(self) -> tuple[Language, ...]:
        """Return the resolved target, when present."""
        return (self.target,) if self.target is not None else ()

    def describe(self) -> str:
        """Render the non-terminal as ``<name>``."""
        return "<{}>".format(self.ref_name)

    def __repr__(self) -> str:
        return "Ref({!r})".format(self.ref_name)


def as_language(value: Any) -> Language:
    """Coerce ``value`` into a :class:`Language` node.

    Non-language values are treated as token kinds, so grammars can be written
    compactly: ``Cat('(', expr)`` instead of ``Cat(token('('), expr)``.
    """
    if isinstance(value, Language):
        return value
    return token(value)


def _identity(tree: Any) -> Any:
    return tree


def _fn_name(fn: Callable[..., Any]) -> str:
    return getattr(fn, "__name__", None) or type(fn).__name__


def iter_children(node: Language) -> Iterator[Language]:
    """Iterate over the non-None direct children of ``node``."""
    for child in node.children():
        if child is not None:
            yield child


def reachable_nodes(root: Language) -> list[Language]:
    """Return every node reachable from ``root`` (including ``root``).

    The traversal is iterative — derived grammar graphs can be as deep as
    the input that produced them, far beyond the interpreter recursion
    limit, as well as cyclic — and the result is in a deterministic
    depth-first discovery order.
    """
    seen: set[int] = set()
    order: list[Language] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        # reversed so the left child is visited before the right child
        stack.extend(reversed(list(iter_children(node))))
    return order


def graph_size(root: Language) -> int:
    """Number of nodes reachable from ``root`` — ``G`` in the paper's bounds."""
    return len(reachable_nodes(root))


def _stable_repr(value: Any) -> str:
    """A repr safe to hash across processes.

    Python's default object repr embeds the instance's memory address
    (``<Payload object at 0x7f...>``), which changes every run — hashing it
    would make :func:`structural_fingerprint` reject a grammar's own
    serialized tables in the next process.  Any repr that raises or that
    embeds an address collapses to the value's type name, trading payload
    discrimination for the cross-process stability the fingerprint promises.
    """
    try:
        text = repr(value)
    except Exception:
        return "<unreprable {}>".format(type(value).__name__)
    if " at 0x" in text:
        return "<by-type {}>".format(type(value).__name__)
    return text


def terminal_nodes(root: Language) -> list[Token]:
    """Every :class:`Token` leaf reachable from ``root``, in discovery order.

    The reachable terminals are what decide how a language responds to the
    next input token: deriving by two tokens that satisfy exactly the same
    subset of these leaves produces the same successor graph.  The
    token-class analysis in :mod:`repro.compile` builds on this.
    """
    return [node for node in reachable_nodes(root) if isinstance(node, Token)]


def structural_fingerprint(root: Language) -> str:
    """A stable hex digest of the grammar graph's *structure*.

    Nodes are numbered in deterministic traversal order (node ids are
    process-local counters and therefore useless across runs), and each
    node contributes its type, its structural payload — token kind/label,
    non-terminal name, ε tree shape, reduction key — and the traversal
    indices of its children.  Two graphs built the same way hash the same in
    any process, so serialized compiled tables (:mod:`repro.compile`) can
    verify they are being re-attached to the grammar they were built from.

    The fingerprint is intentionally *not* a semantic equivalence check:
    distinct constructions of the same language hash differently.
    """
    order = reachable_nodes(root)
    index = {id(node): position for position, node in enumerate(order)}
    digest = hashlib.sha256()
    for position, node in enumerate(order):
        children = ",".join(str(index[id(child)]) for child in iter_children(node))
        if isinstance(node, Token):
            payload = "kind={} label={} pred={}".format(
                _stable_repr(node.kind),
                _stable_repr(node.label),
                "yes" if node.predicate is not None else "no",
            )
        elif isinstance(node, Ref):
            payload = "ref={!r}".format(node.ref_name)
        elif isinstance(node, Epsilon):
            payload = "trees={}".format(_stable_repr(node.trees))
        elif isinstance(node, Reduce):
            key = getattr(node.fn, "_key", None)
            try:
                payload = (
                    "fn={}".format(_stable_repr(key()))
                    if callable(key)
                    else "fn={}".format(_fn_name(node.fn))
                )
            except Exception:
                payload = "fn={}".format(_fn_name(node.fn))
        else:
            payload = ""
        digest.update(
            "{}|{}|{}|{}\n".format(position, type(node).__name__, payload, children).encode(
                "utf-8", "backslashreplace"
            )
        )
    return digest.hexdigest()


def clone_graph(root: Language) -> Language:
    """Deep-copy a grammar graph into fresh, cache-free nodes.

    The clone has the same structure and payloads as the original — same
    :func:`structural_fingerprint`, same recognized language, shared token
    predicates, reduction functions and ε-tree payloads — but every node is
    a new object with pristine memo/parse-null fields and no anchored
    compiled table.  Final states are copied: the clone denotes the same
    languages, so a clone of a settled grammar starts settled.  Cycles are
    preserved.

    Every engine takes ownership of its grammar with it
    (:func:`repro.core.parse.own_grammar`), since node-resident caches make
    a graph single-threaded territory.  The traversal reads only structure
    and states, never memo fields, so any number of threads may clone a
    graph that an engine derives on while writing only memo fields to it,
    as a table does on its settled and cut root.
    """
    order = reachable_nodes(root)
    clones: dict[int, Language] = {}
    for node in order:
        if node is EMPTY:
            clone: Language = EMPTY
        elif isinstance(node, Empty):
            clone = Empty()
        elif isinstance(node, Epsilon):
            clone = Epsilon(node.trees)
        elif isinstance(node, Token):
            clone = Token(kind=node.kind, predicate=node.predicate, label=node.label)
        elif isinstance(node, Alt):
            clone = Alt()
        elif isinstance(node, Cat):
            clone = Cat()
        elif isinstance(node, Reduce):
            clone = Reduce(None, node.fn)
        elif isinstance(node, Delta):
            clone = Delta()
        elif isinstance(node, Ref):
            clone = Ref(node.ref_name)
        else:
            raise TypeError("cannot clone unknown node type: {!r}".format(node))
        clone.state = node.state
        clones[id(node)] = clone
    for node in order:
        clone = clones[id(node)]
        if isinstance(node, (Alt, Cat)):
            clone.left = clones[id(node.left)] if node.left is not None else None
            clone.right = clones[id(node.right)] if node.right is not None else None
        elif isinstance(node, (Reduce, Delta)):
            clone.lang = clones[id(node.lang)] if node.lang is not None else None
        elif isinstance(node, Ref):
            clone.target = clones[id(node.target)] if node.target is not None else None
    return clones[id(root)]
