"""repro.compile — a lazy derivative-automaton compiler for grammars.

Instead of re-deriving the grammar on every parse, a grammar is compiled
**once** into a reusable automaton:

* states are interned derivative closures (by node identity, then by a
  canonical key of the derived graph, backed by a grammar-lifetime derive
  memo),
* transitions are memoized per ``state × token-class`` — one edge covers
  every token with the same match signature
  (:class:`~repro.compile.classes.TokenClassifier`) — and, on kind-pure
  grammars, linked per token kind into each state's edge dict, so a warm
  token costs one ``dict.get``,
* the transition table is owned by the *grammar* and persists across parses
  and across parser instances
  (:func:`~repro.compile.automaton.compile_grammar`),
* tables serialize to JSON and re-attach to their grammar pre-warmed
  (:func:`~repro.compile.serialize.save_table` /
  :func:`~repro.compile.serialize.load_table`).

Quickstart::

    from repro.grammars import arithmetic_grammar
    from repro.compile import CompiledParser, save_table, load_table

    grammar = arithmetic_grammar()
    parser = CompiledParser(grammar)          # compiles lazily, on demand
    parser.recognize(tokens)                  # cold: derives + fills table
    parser.recognize(tokens)                  # warm: dict lookups per token

    save_table(parser.table, "arith.table.json")
    warmed = CompiledParser(table=load_table("arith.table.json", grammar))
    warmed.recognize(tokens)                  # warm from disk, no derivation

``CompiledParser`` exposes the same ``recognize`` / ``parse`` / ``start()``
+ ``feed`` API as :class:`~repro.core.parse.DerivativeParser`; recognition
runs on the automaton, while tree-producing calls fall back to on-the-fly
derivation (compiled transitions are token-class-interned and do not carry
per-token parse-tree payloads).  Its ``start()`` cursor recognizes only,
in O(1) memory; a compiled stream that needs trees is an
:class:`~repro.incremental.IncrementalDocument`.
"""

from .automaton import (
    AutomatonState,
    GrammarTable,
    as_root,
    compile_grammar,
    discard_table,
)
from .classes import TokenClassifier
from .executor import CompiledParser, CompiledSnapshot, CompiledState
from .serialize import dump_table, load_table, restore_table, save_table

__all__ = [
    "CompiledParser",
    "CompiledState",
    "CompiledSnapshot",
    "GrammarTable",
    "AutomatonState",
    "TokenClassifier",
    "compile_grammar",
    "discard_table",
    "as_root",
    "save_table",
    "load_table",
    "dump_table",
    "restore_table",
]
