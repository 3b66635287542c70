"""Context-free grammars as symbol/production data (the classical view).

The paper's evaluation (Section 4.1) modifies its Python grammar "to use
traditional CFG productions instead of the nested parsing expressions
supported by PWD" so that the same grammar can drive the Earley and Bison
baselines.  This module is that common currency: a :class:`Grammar` is a start
symbol plus a list of :class:`Production` rules over

* **non-terminals** — :class:`Nonterminal` instances (or, for convenience,
  names that appear on the left-hand side of some production), and
* **terminals** — any other hashable value, interpreted as a token *kind*.

Grammars can be converted to the derivative parser's parsing-expression graph
(:meth:`Grammar.to_language`), fed to the Earley parser directly, or fed to
the LR-table construction in :mod:`repro.glr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..core.errors import GrammarError
from ..core.languages import EMPTY, Alt, Cat, Language, Ref, epsilon, token
from ..core.reductions import ReductionFunction

__all__ = [
    "Nonterminal",
    "Production",
    "Grammar",
    "END_OF_INPUT",
    "BuildNode",
    "grammar_from_rules",
]


#: The end-of-input pseudo-terminal used by FOLLOW sets and LR tables.
END_OF_INPUT = "$end"


@dataclass(frozen=True)
class Nonterminal:
    """A named non-terminal symbol."""

    name: str

    def __repr__(self) -> str:
        return "<{}>".format(self.name)


@dataclass(frozen=True)
class Production:
    """A single production ``lhs → rhs``.

    ``rhs`` is a tuple of symbols: :class:`Nonterminal` instances and terminal
    token kinds.  ``index`` is the production's position in the grammar and is
    used by the LR machinery and by parse-tree labels.
    """

    lhs: str
    rhs: Tuple[Any, ...]
    index: int = -1

    def __str__(self) -> str:
        rhs = " ".join(_symbol_str(sym) for sym in self.rhs) if self.rhs else "ε"
        return "{} → {}".format(self.lhs, rhs)

    @property
    def is_epsilon(self) -> bool:
        """True for an empty (ε) production."""
        return len(self.rhs) == 0


def _symbol_str(symbol: Any) -> str:
    if isinstance(symbol, Nonterminal):
        return symbol.name
    return repr(symbol)


class BuildNode(ReductionFunction):
    """Reduction producing the standard CFG parse-tree node ``(lhs, children)``.

    The derivative parser's concatenation trees are nested pairs; this
    reduction flattens a right-nested pair chain of known arity into a tuple
    so that trees from the derivative, Earley and GLR parsers are directly
    comparable.
    """

    def __init__(self, lhs: str, arity: int) -> None:
        self.lhs = lhs
        self.arity = arity

    def __call__(self, tree: Any) -> Any:
        children: List[Any] = []
        remaining = tree
        for _ in range(self.arity - 1):
            first, remaining = remaining
            children.append(first)
        children.append(remaining)
        return (self.lhs, tuple(children))

    def _key(self) -> tuple:
        return (self.lhs, self.arity)


class _BuildEmptyNode(ReductionFunction):
    """Reduction for ε productions: always produce ``(lhs, ())``."""

    def __init__(self, lhs: str) -> None:
        self.lhs = lhs

    def __call__(self, tree: Any) -> Any:
        return (self.lhs, ())

    def _key(self) -> tuple:
        return (self.lhs,)


class Grammar:
    """A context-free grammar: start symbol + productions.

    Parameters
    ----------
    start:
        The start non-terminal's name.
    productions:
        An iterable of ``(lhs, rhs)`` pairs or :class:`Production` objects.
        ``rhs`` entries may use :class:`Nonterminal`, plain strings naming a
        non-terminal defined by some production, or terminal token kinds.
        Strings that match no production's left-hand side are terminals.
    """

    def __init__(self, start: str, productions: Iterable[Any]) -> None:
        self.start = start
        raw: List[Tuple[str, Tuple[Any, ...]]] = []
        for entry in productions:
            if isinstance(entry, Production):
                raw.append((entry.lhs, tuple(entry.rhs)))
            else:
                lhs, rhs = entry
                raw.append((str(lhs), tuple(rhs)))
        lhs_names = {lhs for lhs, _ in raw}
        if start not in lhs_names:
            raise GrammarError(
                "start symbol {!r} has no production".format(start)
            )
        def normalize(symbol: Any) -> Any:
            if isinstance(symbol, Nonterminal):
                return symbol
            if isinstance(symbol, str) and symbol in lhs_names:
                return Nonterminal(symbol)
            return symbol

        self.productions: List[Production] = []
        for index, (lhs, rhs) in enumerate(raw):
            self.productions.append(
                Production(lhs, tuple(normalize(symbol) for symbol in rhs), index)
            )
        self._by_lhs: Dict[str, List[Production]] = {}
        for production in self.productions:
            self._by_lhs.setdefault(production.lhs, []).append(production)
        self._language_cache: Dict[bool, Language] = {}

    # ------------------------------------------------------------ inspection
    @property
    def nonterminals(self) -> List[str]:
        """Every non-terminal name, in first-appearance order."""
        seen: List[str] = []
        for production in self.productions:
            if production.lhs not in seen:
                seen.append(production.lhs)
        return seen

    @property
    def terminals(self) -> List[Any]:
        """Every terminal symbol, in first-appearance order."""
        seen: List[Any] = []
        for production in self.productions:
            for symbol in production.rhs:
                if not isinstance(symbol, Nonterminal) and symbol not in seen:
                    seen.append(symbol)
        return seen

    def productions_for(self, lhs: str) -> List[Production]:
        """All productions with the given left-hand side."""
        return self._by_lhs.get(lhs, [])

    def is_nonterminal(self, symbol: Any) -> bool:
        """True when ``symbol`` is (or names) a non-terminal of this grammar."""
        if isinstance(symbol, Nonterminal):
            return True
        return isinstance(symbol, str) and symbol in self._by_lhs

    def production_count(self) -> int:
        """Number of productions (the paper reports 722 for its Python grammar)."""
        return len(self.productions)

    def validate(self) -> None:
        """Raise :class:`GrammarError` for undefined non-terminals."""
        defined = set(self._by_lhs)
        for production in self.productions:
            for symbol in production.rhs:
                if isinstance(symbol, Nonterminal) and symbol.name not in defined:
                    raise GrammarError(
                        "production {!r} references undefined non-terminal {!r}".format(
                            str(production), symbol.name
                        )
                    )

    def __str__(self) -> str:
        lines = ["start: {}".format(self.start)]
        lines.extend(str(production) for production in self.productions)
        return "\n".join(lines)

    # ------------------------------------------------------------ conversion
    def augmented(self) -> "Grammar":
        """Return a copy with a fresh start symbol ``S' → S`` (for LR tables)."""
        fresh = self.start + "'"
        while fresh in self._by_lhs:
            fresh += "'"
        rules: List[Tuple[str, Tuple[Any, ...]]] = [(fresh, (Nonterminal(self.start),))]
        rules.extend((production.lhs, production.rhs) for production in self.productions)
        return Grammar(fresh, rules)

    def language(self, build_trees: bool = True) -> Language:
        """Cached :meth:`to_language`: one shared graph per ``build_trees`` flag.

        Sharing one graph is what lets grammar-level caches accumulate: the
        compiled-automaton registry (:mod:`repro.compile`) and the per-node
        memo machinery key their state on node identity, so two parsers
        built from two separate :meth:`to_language` conversions can never
        share a transition table.  Every engine copies the graph it is
        given, so sharing it never lets one parser's caches touch another's.
        """
        cached = self._language_cache.get(build_trees)
        if cached is None:
            cached = self.to_language(build_trees=build_trees)
            self._language_cache[build_trees] = cached
        return cached

    def to_language(self, build_trees: bool = True) -> Language:
        """Convert to the derivative parser's parsing-expression graph.

        Each non-terminal becomes a :class:`~repro.core.languages.Ref` whose
        target is the union of its productions, each production a chain of
        concatenations (Section 2.5.1 of the paper).  With ``build_trees``
        (default) every production is wrapped in a reduction producing the
        classical ``(lhs, children)`` node so that trees agree with the
        Earley and GLR parsers.
        """
        self.validate()
        refs: Dict[str, Ref] = {name: Ref(name) for name in self.nonterminals}

        def symbol_language(symbol: Any) -> Language:
            if isinstance(symbol, Nonterminal):
                return refs[symbol.name]
            return token(symbol)

        for name in self.nonterminals:
            alternatives: List[Language] = []
            for production in self.productions_for(name):
                if production.is_epsilon:
                    body: Language = epsilon(())
                    if build_trees:
                        body = body.map(_BuildEmptyNode(name))
                    alternatives.append(body)
                    continue
                parts = [symbol_language(symbol) for symbol in production.rhs]
                body = parts[-1]
                for part in reversed(parts[:-1]):
                    body = Cat(part, body)
                if build_trees:
                    body = body.map(BuildNode(name, len(production.rhs)))
                alternatives.append(body)
            if not alternatives:
                refs[name].set(EMPTY)
                continue
            union = alternatives[0]
            for alternative in alternatives[1:]:
                union = Alt(union, alternative)
            refs[name].set(union)
        return refs[self.start]


def grammar_from_rules(start: str, rules: Dict[str, Sequence[Sequence[Any]]]) -> Grammar:
    """Build a grammar from ``{lhs: [rhs, rhs, ...]}`` with strings as symbols.

    Right-hand-side entries that name a key of ``rules`` become non-terminals;
    everything else is a terminal.  Empty right-hand sides are ε productions.
    """
    productions: List[Tuple[str, Tuple[Any, ...]]] = []
    for lhs, alternatives in rules.items():
        for rhs in alternatives:
            productions.append((lhs, tuple(rhs)))
    return Grammar(start, productions)
