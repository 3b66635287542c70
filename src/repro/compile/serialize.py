"""Serialization of compiled grammar tables (ship a hot grammar pre-warmed).

A serialized table is a JSON document holding the automaton's *shape* —
state indices, accepting flags and each state's kind edges — plus, per
state, a **witness**: the parent state and the representative
token that first reached it.  Languages, classifiers and memo entries are
deliberately not serialized (they hold arbitrary Python callables); instead,
a loaded state starts unmaterialized, and the witness chain lets the table
re-derive its language on demand the first time a parse steps off the
serialized transitions (:meth:`GrammarTable.materialize`).

Consequences:

* Input covered by the serialized transitions parses with **zero**
  derivation — warm-cache performance straight from disk.
* Input that leaves the serialized automaton pays one witness re-derivation
  per state it revives, then proceeds exactly like a live table.
* A table can only be re-attached to *the grammar it was compiled from*:
  :func:`load_table` always verifies the grammar's structural fingerprint
  (:func:`repro.core.languages.structural_fingerprint` of the grammar as
  the caller built it, before the table optimizes or cuts its copy — the
  key the serve layer's caches and stores use) and its kind-purity, and
  refuses any mismatch.  There is no override: a table attached to another
  grammar would answer covered input for the saved grammar's language.

Only JSON-representable token data survives serialization: states whose
witness token has a non-string kind (or a non-scalar value) are dropped,
together with the edges pointing at them, as are edges whose kind is not a
JSON scalar.  Kind-impure states (predicate terminals) serialize without
edges — their classification is value-dependent and must be recomputed
live.

Version 4: each state carries one ``edges`` list of ``[kind, target]``
pairs, where ``target`` is a serialized state index or ``-1`` for the
``∅`` sink.  The loader links them into the fresh table's edge dicts in
one allocation burst, so a loaded table runs the hot loop with zero
derivations *and* zero ``step_slow`` fallbacks on input the saved
automaton covered — and rejects with none either, because dead edges
ride along.  Version 3 had the same layout but stamped the fingerprint of
the optimized root; it is refused rather than mistaken for a grammar
mismatch.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from ..core.errors import ReproError
from ..core.languages import token_kind, token_value
from ..core.metrics import Metrics
from ..lexer.tokens import Tok
from .automaton import STATE, AutomatonState, GrammarTable

__all__ = ["save_table", "load_table", "dump_table", "restore_table", "FORMAT", "VERSION"]

FORMAT = "repro-compiled-table"
#: Version 4: one ``edges`` list per state, stamped with the caller's
#: grammar fingerprint.  Older documents are rejected — re-save from a live
#: table.
VERSION = 4

_SCALAR = (str, int, float, bool, type(None))


def _interned(kind: Any) -> Any:
    """``kind``, as the interned string when it is one.

    Lexers' kind strings are interned, and a dict probe whose key is the
    identical object skips the string comparison: loaded edge keys then
    hit as fast as the ones a live walk linked from the tokens themselves.
    """
    return sys.intern(kind) if isinstance(kind, str) else kind


def _witness_fields(state: AutomatonState) -> Optional[Dict[str, Any]]:
    """The JSON form of a state's witness token, or None when unserializable."""
    if state.via is None:
        return None
    kind = token_kind(state.via)
    value = token_value(state.via)
    if not isinstance(kind, str) or not isinstance(value, _SCALAR):
        return None
    return {"kind": kind, "value": value}


def dump_table(table: GrammarTable) -> Dict[str, Any]:
    """Render ``table`` as a JSON-serializable dictionary."""
    states = table.states()
    # A state is placeable iff a serializable witness chain links it to the
    # start state; everything else (and every edge into it) is dropped.
    placeable: Dict[int, bool] = {}
    witnesses: Dict[int, Optional[Dict[str, Any]]] = {}
    for state in states:  # creation order ⇒ parents precede children
        if state.parent is None:
            placeable[state.index] = state is table.start
            witnesses[state.index] = None
            continue
        witness = _witness_fields(state)
        witnesses[state.index] = witness
        placeable[state.index] = witness is not None and placeable.get(
            state.parent.index, False
        )

    serialized: List[Dict[str, Any]] = []
    dropped = 0
    for state in states:
        if not placeable[state.index]:
            dropped += 1
            continue
        edges: List[List[Any]] = []
        for kind, target in state.edges.items():
            if not isinstance(kind, _SCALAR):  # also skips the STATE key
                continue
            successor = target[STATE]
            if successor.dead:
                edges.append([kind, -1])
            elif placeable.get(successor.index, False):
                edges.append([kind, successor.index])
        serialized.append(
            {
                "index": state.index,
                "accepting": bool(state.accepting),
                "parent": state.parent.index if state.parent is not None else None,
                "via": witnesses[state.index],
                "edges": edges,
            }
        )

    return {
        "format": FORMAT,
        "version": VERSION,
        "fingerprint": table.fingerprint,
        "pure": table.pure,
        "start": table.start.index,
        "dropped_states": dropped,
        "states": serialized,
    }


def save_table(table: GrammarTable, path: str) -> None:
    """Write ``table`` to ``path`` as JSON (see :func:`dump_table`)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dump_table(table), handle, separators=(",", ":"))


def restore_table(
    data: Dict[str, Any],
    grammar: Any,
    metrics: Optional[Metrics] = None,
) -> GrammarTable:
    """Rebuild a :class:`GrammarTable` over ``grammar`` from dumped ``data``.

    Raises :class:`~repro.core.errors.ReproError` for a foreign or
    old-version document, and for a grammar whose structural fingerprint
    or kind-purity differs from the saved table's.  The returned table is
    *independent* of the grammar-owned table
    :func:`~repro.compile.automaton.compile_grammar` shares — callers
    decide whether to adopt it (pass it to
    :class:`~repro.compile.CompiledParser` via ``table=``).  ``metrics``
    (optional) becomes the fresh table's engine counter bag, so a cache
    that warm-loads tables can meter them like ones it compiled itself.
    """
    if data.get("format") != FORMAT:
        raise ReproError("not a compiled-table document: {!r}".format(data.get("format")))
    if data.get("version") != VERSION:
        raise ReproError(
            "unsupported compiled-table version {0!r}: this build reads only "
            "version {1} (version {1} stores one edge list per state and "
            "the fingerprint of the grammar as built).  "
            "Re-save the table from a live build with save_table().".format(
                data.get("version"), VERSION
            )
        )

    table = GrammarTable(grammar, metrics=metrics)
    if data.get("fingerprint") != table.fingerprint:
        raise ReproError(
            "compiled table was built from a structurally different grammar "
            "(fingerprint mismatch)"
        )
    if "pure" in data and bool(data["pure"]) != table.pure:
        raise ReproError(
            "compiled table disagrees with the grammar on kind-purity "
            "(saved pure={}, grammar pure={})".format(bool(data["pure"]), table.pure)
        )

    entries = data.get("states", [])
    start_index = data.get("start", 0)
    by_serialized_index: Dict[int, AutomatonState] = {}

    # Pass 1: create (or adopt) one state per serialized entry.
    for entry in entries:
        if entry["index"] == start_index:
            by_serialized_index[entry["index"]] = table.start
            continue
        state = AutomatonState(
            index=len(table._by_index),
            language=None,
            accepting=bool(entry["accepting"]),
        )
        table._by_index.append(state)
        by_serialized_index[entry["index"]] = state

    # Pass 2: wire witnesses and edges (the first walk repacks them).
    for entry in entries:
        state = by_serialized_index[entry["index"]]
        parent_index = entry.get("parent")
        if parent_index is not None and state is not table.start:
            state.parent = by_serialized_index.get(parent_index)
            via = entry.get("via")
            if via is not None:
                state.via = Tok(via["kind"], via["value"])
        for kind, target in entry.get("edges", []):
            successor = table.dead if target == -1 else by_serialized_index.get(target)
            if successor is not None:
                state.edges[_interned(kind)] = successor.edges
    return table


def load_table(
    path: str, grammar: Any, metrics: Optional[Metrics] = None
) -> GrammarTable:
    """Read a table from ``path`` and attach it to ``grammar``.

    The guards and ``metrics`` behave exactly as in :func:`restore_table`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return restore_table(data, grammar, metrics=metrics)
