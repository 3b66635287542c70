"""Memoization strategies for the ``derive`` function.

Section 4.4 of the paper observes that the original implementation's nested
hash tables (node → token → result) dominate the cost of memoization, and
that the vast majority of grammar nodes only ever receive a *single* memo
entry (Figure 10).  The improved implementation therefore stores the memo for
each node in two fields on the node itself — a key and a value — evicting the
old entry when a second token arrives.  The eviction makes the memo
"forgetful", causing a small number of extra uncached ``derive`` calls
(Figure 11, ~4.2 % on average) in exchange for a ~2× speedup (Figure 12).

Figure 10 also says *which* nodes receive several entries: the grammar's
own nodes.  A derived node exists for one position of the input and is
derived by the tokens that follow it, while a grammar node is derived anew
at every position where its non-terminal starts, by whichever token stands
there.  Forgetting those entries is what the single-entry memo's extra
derives mostly are: with one field per node, the grammar's nodes took 43 %
of the uncached derives of a 2k-token PL/0 parse.  :class:`SingleEntryMemo`
therefore gives each node reachable from a parser's optimized root
(:meth:`DeriveMemo.adopt_grammar`) an epoch-tagged ``{token: result}``
table, and keeps the single field for every derived node.  The tables hold at most (grammar nodes × distinct
tokens of one parse) entries, and ``clear`` empties them.

Two interchangeable strategies are provided so the benchmarks can compare
them directly:

* :class:`SingleEntryMemo` — the paper's improved strategy (node fields).
* :class:`PerNodeDictMemo` — one plain ``{token: result}`` hash table
  stored per node (the "inner hash table in a node field" variant
  discussed in Section 4.4).  :class:`PersistentDictMemo`, the compiled
  table's transition cache, is the same memo with a no-op ``clear``.

The original strategy, a global table of tables, lives with the 2011
baseline parser (:class:`repro.baseline.OriginalParser`).

All strategies implement the same tiny interface: :meth:`get`, :meth:`put`
and :meth:`clear`, plus :meth:`adopt_grammar` (a no-op except for the
single-entry memo) and :meth:`entry_distribution` used by the Figure 10
benchmark.

**Concurrency contract.**  Memo entries live in fields *on the grammar
nodes*, and nothing makes interleaved writes from concurrent threads safe:
a single-entry put is three separate field assignments, and two dict-memo
puts may race on creating a node's table.  So all derivation over one
graph must be confined to one thread or serialized by one lock.
Each engine owns its graph (:func:`~repro.core.parse.own_grammar` copies
the caller's), so an interpreted parser is thread-confined with its copy
and a table serializes its :class:`PersistentDictMemo` under the table
lock.  ``∅``, the one node all graphs share, never gets an entry.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from .languages import EMPTY, Language, reachable_nodes
from .metrics import Metrics

__all__ = [
    "MISS",
    "DeriveMemo",
    "SingleEntryMemo",
    "PerNodeDictMemo",
    "PersistentDictMemo",
    "make_memo",
    "MEMO_STRATEGIES",
]


class _Miss:
    """Sentinel distinguishing 'no memo entry' from a memoized ``None``."""

    _instance: Optional["_Miss"] = None

    def __new__(cls) -> "_Miss":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<MISS>"


#: Returned by :meth:`DeriveMemo.get` when no entry exists.
MISS = _Miss()


class DeriveMemo:
    """Abstract interface shared by every memoization strategy."""

    name = "abstract"

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics if metrics is not None else Metrics()

    def get(self, node: Language, token: Any) -> Any:
        """Return the memoized derivative of ``node`` by ``token`` or MISS."""
        raise NotImplementedError

    def put(self, node: Language, token: Any, result: Language) -> None:
        """Record ``result`` as the derivative of ``node`` by ``token``."""
        raise NotImplementedError

    def clear(self) -> None:
        """Forget every memo entry (the paper clears tables between parses)."""
        raise NotImplementedError

    def adopt_grammar(self, root: Language) -> None:
        """Learn the grammar's own nodes: those reachable from ``root``.

        ``root`` is a parser's optimized initial grammar.  Only the
        single-entry strategy treats these nodes differently.
        """

    def entry_distribution(self) -> Dict[int, int]:
        """Map ``number of entries per node`` → ``number of nodes``.

        Only meaningful for table-based strategies; the single-entry strategy
        reports eviction counts through :class:`Metrics` instead.
        """
        return {}


class _TokenTable(dict):
    """A grammar node's memo: every token's derivative, for one epoch."""

    __slots__ = ("epoch",)

    def __init__(self) -> None:
        super().__init__()
        self.epoch = -1


class SingleEntryMemo(DeriveMemo):
    """The improved, forgetful single-entry memo of Section 4.4.

    Each node stores at most one ``(token, result)`` pair directly in its
    ``memo_token`` / ``memo_result`` fields.  An ``epoch`` counter implements
    ``clear``: entries written under an older epoch are ignored.

    The grammar's own nodes (:meth:`adopt_grammar`) also keep a
    ``{token: result}`` table in their ``memo_tokens`` field, tagged with
    the epoch that wrote it, so they are derived once per distinct token
    (module docstring).  The single field stays their first probe: within a
    step every lookup passes the same token.

    Because the entries live on the grammar nodes themselves, and one graph
    may meet several memos over its life (a memo handed to a second parser,
    a snapshot resumed over another memo), epochs are drawn from a
    **class-level monotonic counter**: every instance (and every ``clear``)
    gets an epoch no other instance has ever used, so no memo can read
    derivatives memoized by another.

    The stored token is tested with ``is`` before ``==``: within a step every
    lookup passes the same token object, so the common hit skips a
    Python-level ``__eq__`` (dataclass tokens define one).  During a step
    an entry may hold ``derive``'s in-progress frame instead of a node; the
    memo stores it like any other value.
    """

    name = "single"

    #: Class-level epoch source.  Node fields default to epoch -1, so the
    #: counter starts at 1 and only ever moves forward.
    _epochs = itertools.count(1)

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        super().__init__(metrics)
        self.epoch = next(SingleEntryMemo._epochs)
        #: The per-token tables written under the current epoch.
        self._tables: List[_TokenTable] = []

    def adopt_grammar(self, root: Language) -> None:
        """Give every node reachable from ``root`` but ``∅`` a per-token table.

        ``∅`` is shared by every graph and never memoized (``derive``
        answers it first).
        """
        for node in reachable_nodes(root):
            if node.memo_tokens is None and node is not EMPTY:
                node.memo_tokens = _TokenTable()

    def get(self, node: Language, token: Any) -> Any:
        """Return the node-resident entry when epoch and token match, else MISS."""
        if node.memo_epoch == self.epoch and (
            node.memo_token is token or node.memo_token == token
        ):
            return node.memo_result
        table = node.memo_tokens
        if table is not None and table.epoch == self.epoch:
            return table.get(token, MISS)
        return MISS

    def put(self, node: Language, token: Any, result: Language) -> None:
        """Write the node's single entry, and its per-token table if it has one.

        Overwriting another token's entry counts as an eviction only on a
        node without a table, which keeps every entry.
        """
        table = node.memo_tokens
        if table is not None:
            if table.epoch != self.epoch:
                table.clear()
                table.epoch = self.epoch
                self._tables.append(table)
            table[token] = result
        elif (
            node.memo_epoch == self.epoch
            and node.memo_token is not token
            and node.memo_token != token
        ):
            self.metrics.memo_evictions += 1
        node.memo_epoch = self.epoch
        node.memo_token = token
        node.memo_result = result

    def clear(self) -> None:
        """Forget every entry by advancing to a fresh epoch.

        The single fields are forgotten in O(1).  The per-token tables this
        epoch wrote are emptied, so the derived graphs they hold are
        released now rather than at the grammar node's next derive.
        """
        for table in self._tables:
            if table.epoch == self.epoch:  # not taken over by another memo
                table.clear()
        self._tables = []
        self.epoch = next(SingleEntryMemo._epochs)


class PerNodeDictMemo(DeriveMemo):
    """A full hash table per node, stored in the node's ``memo_table`` field.

    This is the strategy the paper compares the single-entry memo against in
    Figures 11 and 12: it never recomputes a derivative but pays a dictionary
    lookup and insertion per call.  ``memo_table`` is one plain
    ``{token: result}`` dict, written only by the memo that derives the
    node's graph: every engine derives on its own copy of the grammar
    (:func:`~repro.core.parse.own_grammar`), so no two memos share a node.
    (Moving the tables into the memo keyed by node instead is the original
    2011 "global table of tables" layout and would erase the
    node-field-vs-global distinction Section 4.4 compares.)
    """

    name = "dict"

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        super().__init__(metrics)
        #: The nodes whose ``memo_table`` this memo set.
        self._touched: List[Language] = []

    def get(self, node: Language, token: Any) -> Any:
        """Return the entry for ``(node, token)``, or MISS."""
        table = node.memo_table
        if table is None:
            return MISS
        return table.get(token, MISS)

    def put(self, node: Language, token: Any, result: Language) -> None:
        """Record ``result`` in ``node``'s table, creating it on first write."""
        table = node.memo_table
        if table is None:
            table = node.memo_table = {}
            self._touched.append(node)
        table[token] = result

    def clear(self) -> None:
        """Drop the table of every node this memo wrote."""
        for node in self._touched:
            node.memo_table = None
        self._touched = []

    def entry_distribution(self) -> Dict[int, int]:
        """Entries-per-node histogram over the nodes this memo wrote (Figure 10)."""
        distribution: Dict[int, int] = {}
        for node in self._touched:
            size = len(node.memo_table)
            distribution[size] = distribution.get(size, 0) + 1
        return distribution


class PersistentDictMemo(PerNodeDictMemo):
    """A grammar-lifetime variant of :class:`PerNodeDictMemo`.

    The paper's strategies are *per-parse* caches: :meth:`DeriveMemo.clear`
    is called between timed parses, and :meth:`DerivativeParser.reset`
    forwards to it.  A compiled grammar table (:mod:`repro.compile`) has the
    opposite contract — its derivative memo **is** the transition cache, and
    must survive every parse, every ``reset`` and every parser instance that
    shares the grammar.  This subclass therefore turns :meth:`clear` into a
    no-op.  The entries live on the table's own copy of the grammar, so
    they are freed with that copy when the table is dropped.
    """

    def clear(self) -> None:
        """No-op: persistent memos survive per-parse cache clears."""

    def entry_count(self) -> int:
        """Total number of memoized derivatives currently held."""
        return sum(len(node.memo_table) for node in self._touched)


MEMO_STRATEGIES: Dict[str, type] = {
    SingleEntryMemo.name: SingleEntryMemo,
    PerNodeDictMemo.name: PerNodeDictMemo,
}


def make_memo(strategy: str, metrics: Optional[Metrics] = None) -> DeriveMemo:
    """Construct a memo strategy by name (``single`` or ``dict``)."""
    try:
        cls = MEMO_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            "unknown memo strategy {!r}; expected one of {}".format(
                strategy, sorted(MEMO_STRATEGIES)
            )
        ) from None
    return cls(metrics)


def single_entry_fraction(distribution: Dict[int, int]) -> float:
    """Fraction of memo tables holding exactly one entry (Figure 10's y-axis)."""
    total = sum(distribution.values())
    if total == 0:
        return 1.0
    return distribution.get(1, 0) / total
