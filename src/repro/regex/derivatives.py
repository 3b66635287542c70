"""Brzozowski derivatives of regular expressions (Section 2.1 made executable).

Parsing with derivatives generalizes Brzozowski's 1964 technique for regular
expressions; this module implements the original technique, both because the
paper's background section builds on it and because the reproduction's lexer
(:mod:`repro.lexer`) uses it to recognize token classes.

A regular expression is represented by a small AST (:class:`Regex` subclasses)
with smart constructors that keep expressions in a weak normal form (the
"similarity" rules Brzozowski uses to keep the set of derivatives finite):

* ``∅ | r ⇒ r``, ``r | r ⇒ r``
* ``∅ · r ⇒ ∅``, ``ε · r ⇒ r``
* ``(r*)* ⇒ r*``, ``ε* ⇒ ε``, ``∅* ⇒ ε``

With these rules the set of derivatives of any regex is finite, which is what
makes :func:`to_dfa` terminate.

Like the grammar engine (PR 1), the hot traversals here are **iterative**:
:func:`nullable` is one more declaration on the unified fixed-point kernel
(:mod:`repro.core.fixpoint`) — the same solver behind the grammar
nullability and emptiness analysis — with its final values cached directly on
the (immutable) regex nodes, and :func:`derive` runs on an explicit stack
with per-call sharing-aware memoization.  Regexes nested thousands of levels
deep (machine-generated literals, deeply parenthesized alternations) are
therefore handled without ever approaching the interpreter recursion limit,
and repeated derivation no longer re-walks the whole expression to answer
nullability: each node is solved once per process, then answers in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.fixpoint import NOT_FINAL, FixpointAnalysis, FixpointSolver

__all__ = [
    "Regex",
    "NULL",
    "EPSILON",
    "char",
    "chars",
    "char_range",
    "any_char",
    "seq",
    "alt",
    "star",
    "plus",
    "optional",
    "literal",
    "nullable",
    "derive",
    "matches",
    "signature_partition",
    "charset_leaves",
    "DFA",
    "to_dfa",
]


class Regex:
    """Base class of the regular-expression AST (immutable, hashable)."""

    def nullable(self) -> bool:
        """True when this regex matches the empty string."""
        return nullable(self)

    def derive(self, symbol: str) -> "Regex":
        """The Brzozowski derivative of this regex with respect to ``symbol``."""
        return derive(self, symbol)

    # Convenience operators mirroring the parsing-expression sugar.
    def __or__(self, other: "Regex") -> "Regex":
        return alt(self, other)

    def __add__(self, other: "Regex") -> "Regex":
        return seq(self, other)


@dataclass(frozen=True)
class _Null(Regex):
    """The empty language ``∅``."""

    def __repr__(self) -> str:
        return "∅"


@dataclass(frozen=True)
class _Epsilon(Regex):
    """The empty-string language ``ε``."""

    def __repr__(self) -> str:
        return "ε"


NULL = _Null()
EPSILON = _Epsilon()


@dataclass(frozen=True)
class CharSet(Regex):
    """A single symbol drawn from a set of characters (or its complement)."""

    symbols: FrozenSet[str]
    negated: bool = False

    def accepts(self, symbol: str) -> bool:
        return (symbol in self.symbols) != self.negated

    def __repr__(self) -> str:
        inside = "".join(sorted(self.symbols))
        return "[^{}]".format(inside) if self.negated else "[{}]".format(inside)


@dataclass(frozen=True)
class Seq(Regex):
    """Concatenation ``first · second``."""

    first: Regex
    second: Regex

    def __repr__(self) -> str:
        return "({!r}{!r})".format(self.first, self.second)


@dataclass(frozen=True)
class Alt(Regex):
    """Alternation ``left | right``."""

    left: Regex
    right: Regex

    def __repr__(self) -> str:
        return "({!r}|{!r})".format(self.left, self.right)


@dataclass(frozen=True)
class Star(Regex):
    """Kleene closure ``inner*``."""

    inner: Regex

    def __repr__(self) -> str:
        return "({!r})*".format(self.inner)


# ------------------------------------------------------------ constructors
def char(symbol: str) -> Regex:
    """A regex matching exactly the one-character string ``symbol``."""
    if len(symbol) != 1:
        raise ValueError("char() expects a single character, got {!r}".format(symbol))
    return CharSet(frozenset({symbol}))


def chars(symbols: Iterable[str], negated: bool = False) -> Regex:
    """A regex matching any one character in ``symbols`` (or outside it)."""
    return CharSet(frozenset(symbols), negated)


def char_range(start: str, end: str) -> Regex:
    """A regex matching one character in the inclusive range ``start``–``end``."""
    return chars(chr(code) for code in range(ord(start), ord(end) + 1))


def any_char() -> Regex:
    """A regex matching any single character."""
    return CharSet(frozenset(), negated=True)


def seq(*parts: Regex) -> Regex:
    """Concatenation with the ``∅``/``ε`` simplifications applied."""
    result: Optional[Regex] = None
    for part in reversed(parts):
        if isinstance(part, _Null):
            return NULL
        if isinstance(part, _Epsilon):
            continue
        result = part if result is None else Seq(part, result)
    return result if result is not None else EPSILON


def alt(*parts: Regex) -> Regex:
    """Alternation with ``∅`` elimination and duplicate removal."""
    flat: List[Regex] = []
    for part in parts:
        if isinstance(part, _Null):
            continue
        if part not in flat:
            flat.append(part)
    if not flat:
        return NULL
    result = flat[0]
    for part in flat[1:]:
        result = Alt(result, part)
    return result


def star(inner: Regex) -> Regex:
    """Kleene star with ``(r*)* ⇒ r*``, ``ε* ⇒ ε`` and ``∅* ⇒ ε``."""
    if isinstance(inner, (_Epsilon, _Null)):
        return EPSILON
    if isinstance(inner, Star):
        return inner
    return Star(inner)


def plus(inner: Regex) -> Regex:
    """``r+ = r · r*``."""
    return seq(inner, star(inner))


def optional(inner: Regex) -> Regex:
    """``r? = ε | r``."""
    return alt(EPSILON, inner)


def literal(text: str) -> Regex:
    """A regex matching exactly ``text``."""
    return seq(*(char(symbol) for symbol in text))


# ---------------------------------------------------------------- nullability
class _RegexNullability(FixpointAnalysis):
    """Regex nullability as a declaration on the shared fixed-point kernel.

    Regex ASTs are acyclic, so the "fixed point" converges in one bottom-up
    sweep — but routing it through the kernel buys the explicit-worklist
    traversal (no recursion-limit ceiling on deep expressions) and the
    tentative→final machinery for free.  Final values are cached on the
    nodes themselves (``object.__setattr__`` sidesteps the frozen-dataclass
    guard; the attribute is not a dataclass field, so equality and hashing
    are unaffected), which is sound because regexes are immutable.

    Nodes are keyed by ``id``: the dataclass-generated structural hash
    recurses over the whole expression, which is exactly the stack hazard
    this analysis exists to avoid.  The kernel holds strong references to
    every discovered node for the duration of a solve, keeping ids stable.
    """

    def bottom(self, node: Regex) -> bool:
        return False

    def key(self, node: Regex) -> int:
        return id(node)

    def final(self, node: Regex):
        return node.__dict__.get("_nullable", NOT_FINAL)

    def finalize(self, node: Regex, value: bool) -> None:
        object.__setattr__(node, "_nullable", value)

    def dependencies(self, node: Regex) -> tuple:
        if isinstance(node, Seq):
            return (node.first, node.second)
        if isinstance(node, Alt):
            return (node.left, node.right)
        # Star is nullable regardless of its inner expression; leaves have
        # no dependencies.
        return ()

    def transfer(self, node: Regex, get) -> bool:
        if isinstance(node, (_Epsilon, Star)):
            return True
        if isinstance(node, (_Null, CharSet)):
            return False
        if isinstance(node, Seq):
            return get(node.first) and get(node.second)
        if isinstance(node, Alt):
            return get(node.left) or get(node.right)
        raise TypeError("unknown regex node type: {!r}".format(node))


_NULLABILITY = FixpointSolver(_RegexNullability())

#: Recursion bound for the shallow fast paths.  Lexing derives a fresh small
#: regex per input character, so the common case must stay as cheap as the
#: plain recursive formulation; expressions deeper than this fall back to the
#: explicit-stack/kernel machinery.  The nullable and derive fast paths can
#: nest (Seq derivation consults nullability), so the combined worst case —
#: about two frames per level times two facilities — stays far below the
#: default interpreter limit of 1000.
_FAST_DEPTH = 128


def _nullable_fast(node: Regex, depth: int):
    """Recursive nullability for shallow expressions; None when too deep."""
    if depth <= 0:
        return None
    cached = node.__dict__.get("_nullable")
    if cached is not None:
        return cached
    if isinstance(node, (_Epsilon, Star)):
        return True
    if isinstance(node, (_Null, CharSet)):
        return False
    if isinstance(node, Seq):
        first = _nullable_fast(node.first, depth - 1)
        if first is None:
            return None
        if not first:
            return False
        return _nullable_fast(node.second, depth - 1)
    if isinstance(node, Alt):
        left = _nullable_fast(node.left, depth - 1)
        if left is None:
            return None
        if left:
            return True
        return _nullable_fast(node.right, depth - 1)
    raise TypeError("unknown regex node type: {!r}".format(node))


def nullable(regex: Regex) -> bool:
    """True when the regex matches the empty string (depth-safe, O(1) cached)."""
    cached = regex.__dict__.get("_nullable")
    if cached is not None:
        return cached
    result = _nullable_fast(regex, _FAST_DEPTH)
    if result is None:
        return _NULLABILITY.value(regex)
    return result


# ---------------------------------------------------------------- derivation
# Opcodes for the explicit-stack derive machine (the same shape as the
# grammar engine's iterative Deriver): _DERIVE requests one node's
# derivative; the _FINISH_* entries resume a composite node once its
# children's derivatives are in its result slots.
(
    _DERIVE,
    _FINISH_SEQ,
    _FINISH_SEQ_NULLABLE,
    _FINISH_ALT,
    _FINISH_STAR,
) = range(5)


def _derive_fast(node: Regex, symbol: str, depth: int) -> Optional[Regex]:
    """Recursive derivation for shallow expressions; None when too deep.

    The allocation-free common case: lexing derives a fresh small regex per
    input character, and the explicit-stack machine's per-call memo and
    frame tuples would tax that hot path several-fold.
    """
    if depth <= 0:
        return None
    if isinstance(node, CharSet):
        return EPSILON if node.accepts(symbol) else NULL
    if isinstance(node, (_Null, _Epsilon)):
        return NULL
    if isinstance(node, Seq):
        first = _derive_fast(node.first, symbol, depth - 1)
        if first is None:
            return None
        head = seq(first, node.second)
        if nullable(node.first):
            second = _derive_fast(node.second, symbol, depth - 1)
            if second is None:
                return None
            return alt(head, second)
        return head
    if isinstance(node, Alt):
        left = _derive_fast(node.left, symbol, depth - 1)
        if left is None:
            return None
        right = _derive_fast(node.right, symbol, depth - 1)
        if right is None:
            return None
        return alt(left, right)
    if isinstance(node, Star):
        inner = _derive_fast(node.inner, symbol, depth - 1)
        if inner is None:
            return None
        return seq(inner, node)
    raise TypeError("cannot derive unknown regex node: {!r}".format(node))


def derive(regex: Regex, symbol: str) -> Regex:
    """The Brzozowski derivative of ``regex`` with respect to ``symbol``.

    Depth-safe: shallow expressions (the lexer's per-character hot path) go
    through a bounded recursive fast path; anything deeper falls back to an
    explicit-stack machine that is also sharing-aware — subexpressions that
    appear multiple times in the AST are derived once per call, keyed by
    identity in a per-call memo (every key is kept alive by the root
    expression, so ids are stable).
    """
    fast = _derive_fast(regex, symbol, _FAST_DEPTH)
    if fast is not None:
        return fast
    memo: Dict[int, Regex] = {}
    root_slot: List[Optional[Regex]] = [None]
    stack: List[Tuple] = [(_DERIVE, regex, root_slot, 0)]

    while stack:
        entry = stack.pop()
        op = entry[0]

        if op == _DERIVE:
            _, node, out, slot = entry
            cached = memo.get(id(node))
            if cached is not None:
                out[slot] = cached
                continue

            if isinstance(node, CharSet):
                result: Regex = EPSILON if node.accepts(symbol) else NULL
            elif isinstance(node, (_Null, _Epsilon)):
                result = NULL
            elif isinstance(node, Seq):
                if nullable(node.first):
                    # Dc(r1 · r2) = Dc(r1) · r2 | Dc(r2)   when ε ∈ ⟦r1⟧
                    results: List[Optional[Regex]] = [None, None]
                    stack.append((_FINISH_SEQ_NULLABLE, node, results, out, slot))
                    stack.append((_DERIVE, node.second, results, 1))
                    stack.append((_DERIVE, node.first, results, 0))
                else:
                    results = [None]
                    stack.append((_FINISH_SEQ, node, results, out, slot))
                    stack.append((_DERIVE, node.first, results, 0))
                continue
            elif isinstance(node, Alt):
                results = [None, None]
                stack.append((_FINISH_ALT, node, results, out, slot))
                stack.append((_DERIVE, node.right, results, 1))
                stack.append((_DERIVE, node.left, results, 0))
                continue
            elif isinstance(node, Star):
                results = [None]
                stack.append((_FINISH_STAR, node, results, out, slot))
                stack.append((_DERIVE, node.inner, results, 0))
                continue
            else:
                raise TypeError("cannot derive unknown regex node: {!r}".format(node))
            memo[id(node)] = result
            out[slot] = result
            continue

        # ---------------------------------------------------------- _FINISH_*
        _, node, results, out, slot = entry
        if op == _FINISH_SEQ:
            result = seq(results[0], node.second)
        elif op == _FINISH_SEQ_NULLABLE:
            result = alt(seq(results[0], node.second), results[1])
        elif op == _FINISH_ALT:
            result = alt(results[0], results[1])
        else:  # _FINISH_STAR: Dc(r*) = Dc(r) · r*
            result = seq(results[0], node)
        memo[id(node)] = result
        out[slot] = result

    return root_slot[0]


def matches(regex: Regex, text: str) -> bool:
    """Match by repeated derivation — the algorithm of Section 2.1."""
    current = regex
    for symbol in text:
        current = derive(current, symbol)
        if isinstance(current, _Null):
            return False
    return nullable(current)


# -------------------------------------------------------------- token classes
def signature_partition(symbols, acceptors):
    """Partition ``symbols`` into equivalence classes under ``acceptors``.

    Two symbols are equivalent when every acceptor (a predicate taking one
    symbol) answers identically for both — their *acceptance signature*
    matches.  The result maps each signature (a tuple of booleans, one per
    acceptor) to the list of symbols carrying it, preserving first-seen
    order within each class.

    This is the character-class trick of derivative-based regex engines: the
    derivative of an expression with respect to a symbol depends only on
    which of its character-set leaves accept the symbol, so one derivative
    per class covers the whole alphabet.  The grammar-level token-class
    analysis in :mod:`repro.compile` applies the same partition with
    :class:`repro.core.languages.Token` matchers as the acceptors.
    """
    acceptors = tuple(acceptors)
    groups: Dict[Tuple[bool, ...], List] = {}
    for symbol in symbols:
        signature = tuple(bool(acceptor(symbol)) for acceptor in acceptors)
        groups.setdefault(signature, []).append(symbol)
    return groups


def charset_leaves(regex: Regex) -> List[CharSet]:
    """Every :class:`CharSet` leaf of ``regex``, in deterministic order.

    Iterative (literals build ``Seq`` chains as deep as the literal), and
    deduplicated by object identity so shared leaves appear once.
    """
    leaves: List[CharSet] = []
    seen: set = set()
    stack: List[Regex] = [regex]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, CharSet):
            leaves.append(node)
        elif isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        elif isinstance(node, Alt):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Star):
            stack.append(node.inner)
    return leaves


# ---------------------------------------------------------------------- DFA
@dataclass
class DFA:
    """A deterministic automaton built from regex derivatives.

    ``states`` are the distinct derivatives encountered, ``transitions`` maps
    ``(state_index, symbol)`` to a state index, and ``accepting`` is the set of
    nullable states.  Symbols outside ``alphabet`` fall into the dead state.
    """

    alphabet: Tuple[str, ...]
    transitions: Dict[Tuple[int, str], int]
    accepting: FrozenSet[int]
    start: int
    dead: Optional[int]

    @property
    def state_count(self) -> int:
        states = {self.start}
        states.update(target for target in self.transitions.values())
        states.update(index for index, _ in self.transitions)
        return len(states)

    def accepts(self, text: str) -> bool:
        state = self.start
        for symbol in text:
            state = self.transitions.get((state, symbol), self.dead if self.dead is not None else -1)
            if state == -1:
                return False
        return state in self.accepting


def to_dfa(regex: Regex, alphabet: Iterable[str]) -> DFA:
    """Build a DFA whose states are the (finitely many) derivatives of ``regex``.

    Symbols are grouped into per-state equivalence classes first
    (:func:`signature_partition` over the state's :class:`CharSet` leaves):
    the derivative with respect to a symbol is fully determined by which
    leaves accept it, so one derivative per class serves every symbol in it.
    Over ASCII-sized alphabets this collapses hundreds of derivative calls
    per state into a handful.
    """
    alphabet = tuple(dict.fromkeys(alphabet))
    index: Dict[Regex, int] = {regex: 0}
    order: List[Regex] = [regex]
    transitions: Dict[Tuple[int, str], int] = {}
    worklist = [regex]
    while worklist:
        current = worklist.pop()
        acceptors = [leaf.accepts for leaf in charset_leaves(current)]
        for group in signature_partition(alphabet, acceptors).values():
            successor = derive(current, group[0])
            if successor not in index:
                index[successor] = len(order)
                order.append(successor)
                worklist.append(successor)
            target = index[successor]
            source = index[current]
            for symbol in group:
                transitions[(source, symbol)] = target
    accepting = frozenset(position for position, state in enumerate(order) if nullable(state))
    dead = index.get(NULL)
    return DFA(alphabet, transitions, accepting, 0, dead)
