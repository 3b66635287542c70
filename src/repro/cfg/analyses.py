"""Classical grammar analyses: nullable non-terminals, FIRST and FOLLOW sets.

These are the standard fixed-point computations from compiler textbooks.  They
serve two purposes in the reproduction:

* the SLR(1) table construction in :mod:`repro.glr` needs FOLLOW sets, and
* the tests cross-check the derivative parser's nullability analysis against
  the classical nullable-non-terminal computation on the same grammar.

All three were originally hand-rolled ``while changed`` sweeps over every
production; they are now declarations on the unified fixed-point kernel
(:mod:`repro.core.fixpoint`), the same solver that powers the derivative
engine's nullability and emptiness analysis.  The nodes are non-terminal
*names*, the lattices are the boolean lattice (nullability) and the
subset lattice of terminal symbols (FIRST, FOLLOW), and the dependency
functions are read off the productions once per call — so the solver
revisits a non-terminal only when something it actually reads has grown,
instead of rescanning the whole grammar per pass.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set

from ..core.fixpoint import FixpointAnalysis, FixpointSolver
from .grammar import END_OF_INPUT, Grammar, Nonterminal

__all__ = [
    "nullable_nonterminals",
    "first_sets",
    "follow_sets",
    "first_of_sequence",
    "sequence_is_nullable",
]


class _GrammarAnalysis(FixpointAnalysis):
    """Shared plumbing for per-non-terminal analyses (nodes are names).

    A production may reference a name with no productions of its own (the
    grammar classes tolerate undeclared non-terminals until validation), so
    lookups use :meth:`rhs_of`, which treats such a name as having no
    alternatives — it derives nothing, matching the historical sweeps'
    behaviour of simply never adding it to any set.
    """

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.productions_of: Dict[str, List[Sequence[Any]]] = {
            name: [] for name in grammar.nonterminals
        }
        for production in grammar.productions:
            self.productions_of.setdefault(production.lhs, []).append(production.rhs)

    def rhs_of(self, name: str) -> List[Sequence[Any]]:
        return self.productions_of.get(name, [])


class _NullableNonterminals(_GrammarAnalysis):
    """Boolean lattice: can the non-terminal derive the empty string?"""

    def bottom(self, name: str) -> bool:
        return False

    def dependencies(self, name: str) -> List[str]:
        # Only all-non-terminal productions can witness nullability, so only
        # their symbols are read by the transfer function.
        deps: List[str] = []
        for rhs in self.rhs_of(name):
            if all(isinstance(symbol, Nonterminal) for symbol in rhs):
                deps.extend(symbol.name for symbol in rhs)
        return deps

    def transfer(self, name: str, get) -> bool:
        for rhs in self.rhs_of(name):
            if all(isinstance(symbol, Nonterminal) and get(symbol.name) for symbol in rhs):
                return True
        return False


def nullable_nonterminals(grammar: Grammar) -> Set[str]:
    """The set of non-terminals that can derive the empty string."""
    analysis = _NullableNonterminals(grammar)
    values = FixpointSolver(analysis).solve(list(grammar.nonterminals))
    return {name for name in grammar.nonterminals if values[name]}


class _FirstSets(_GrammarAnalysis):
    """Subset lattice: terminals that can begin a derivation of the name."""

    def __init__(self, grammar: Grammar, nullable: Set[str]) -> None:
        super().__init__(grammar)
        self.nullable = nullable

    def bottom(self, name: str) -> frozenset:
        return frozenset()

    def dependencies(self, name: str) -> List[str]:
        # The transfer function reads FIRST of every non-terminal in the
        # nullable prefix of each production (plus the first non-nullable
        # one); nullability is already fixed, so this set is static.
        deps: List[str] = []
        for rhs in self.rhs_of(name):
            for symbol in rhs:
                if not isinstance(symbol, Nonterminal):
                    break
                deps.append(symbol.name)
                if symbol.name not in self.nullable:
                    break
        return deps

    def transfer(self, name: str, get) -> frozenset:
        result: Set[Any] = set()
        for rhs in self.rhs_of(name):
            for symbol in rhs:
                if isinstance(symbol, Nonterminal):
                    result.update(get(symbol.name))
                    if symbol.name not in self.nullable:
                        break
                else:
                    result.add(symbol)
                    break
        return frozenset(result)


def first_sets(grammar: Grammar) -> Dict[str, Set[Any]]:
    """FIRST sets for every non-terminal (terminals that can begin a derivation)."""
    nullable = nullable_nonterminals(grammar)
    analysis = _FirstSets(grammar, nullable)
    values = FixpointSolver(analysis).solve(list(grammar.nonterminals))
    return {name: set(values[name]) for name in grammar.nonterminals}


def sequence_is_nullable(symbols: Sequence[Any], nullable: Set[str]) -> bool:
    """True when every symbol of ``symbols`` can derive the empty string."""
    return all(
        isinstance(symbol, Nonterminal) and symbol.name in nullable for symbol in symbols
    )


def first_of_sequence(
    symbols: Sequence[Any],
    first: Dict[str, Set[Any]],
    nullable: Set[str],
) -> Set[Any]:
    """FIRST of a sentential-form suffix (used by FOLLOW and by LALR lookaheads)."""
    result: Set[Any] = set()
    for symbol in symbols:
        if isinstance(symbol, Nonterminal):
            result.update(first[symbol.name])
            if symbol.name not in nullable:
                return result
        else:
            result.add(symbol)
            return result
    return result


class _FollowSets(_GrammarAnalysis):
    """Subset lattice: terminals that can appear immediately after the name.

    The variable part of FOLLOW(B) is the union of FOLLOW(A) over every
    production ``A → α B β`` with ``β`` nullable; everything else —
    FIRST(β) contributions and the ``$end`` marker after the start symbol —
    is constant, precomputed once as the seed.
    """

    def __init__(self, grammar: Grammar, nullable: Set[str], first: Dict[str, Set[Any]]) -> None:
        super().__init__(grammar)
        self.seeds: Dict[str, Set[Any]] = {name: set() for name in grammar.nonterminals}
        self.follow_deps: Dict[str, List[str]] = {name: [] for name in grammar.nonterminals}
        self.seeds[grammar.start].add(END_OF_INPUT)
        for production in grammar.productions:
            for position, symbol in enumerate(production.rhs):
                if not isinstance(symbol, Nonterminal):
                    continue
                suffix = production.rhs[position + 1 :]
                self.seeds[symbol.name].update(first_of_sequence(suffix, first, nullable))
                if sequence_is_nullable(suffix, nullable):
                    self.follow_deps[symbol.name].append(production.lhs)

    def bottom(self, name: str) -> frozenset:
        return frozenset(self.seeds[name])

    def dependencies(self, name: str) -> List[str]:
        return self.follow_deps[name]

    def transfer(self, name: str, get) -> frozenset:
        result: Set[Any] = set(self.seeds[name])
        for lhs in self.follow_deps[name]:
            result.update(get(lhs))
        return frozenset(result)


def follow_sets(grammar: Grammar) -> Dict[str, Set[Any]]:
    """FOLLOW sets for every non-terminal, with ``$end`` after the start symbol."""
    nullable = nullable_nonterminals(grammar)
    first = first_sets(grammar)
    analysis = _FollowSets(grammar, nullable, first)
    values = FixpointSolver(analysis).solve(list(grammar.nonterminals))
    return {name: set(values[name]) for name in grammar.nonterminals}
