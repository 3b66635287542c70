"""A bounded LRU cache of compiled grammar tables, keyed by structure.

The service's unit of warmth is the compiled
:class:`~repro.compile.automaton.GrammarTable`.  Compiling one is the
expensive, once-per-grammar step; everything after it is dictionary probes.
:class:`TableCache` owns that step for the service:

* **Keyed by** :func:`~repro.core.languages.structural_fingerprint` of the
  *caller's* root, so two structurally identical grammar objects — a
  grammar re-parsed from the same BNF in two requests, say — resolve to the
  one warm table, which the root-anchored sharing of
  :func:`~repro.compile.automaton.compile_grammar` (keyed on object
  identity) cannot do.
* **Service-private graphs.**  A cache miss builds a
  :class:`~repro.compile.automaton.GrammarTable`, which copies the
  caller's graph and compiles — locks, memoizes, cuts — only its copy;
  worker threads build their thread-confined interpreted parsers from the
  table's root, and each parser copies it again.  The service never
  mutates, locks or anchors anything the caller handed it.
* **Bounded.**  At most ``capacity`` tables are retained, LRU-evicted.
  Eviction only drops the *cache's* reference: batches, sessions and
  checkpoints hold the :class:`CacheEntry` strongly, so an in-flight parse
  keeps its table alive and intact (the concurrency suite asserts this).
* **Compile-once under contention.**  Concurrent misses on one fingerprint
  coalesce on a future; a single thread compiles, the rest wait.

Hit/miss/eviction counts land in the service's
:class:`~repro.serve.metrics.ServiceMetrics`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..compile.automaton import GrammarTable, as_root
from ..compile.serialize import restore_table
from ..core.languages import Language, structural_fingerprint
from ..core.metrics import Metrics
from ..obs.logging import NULL_LOGGER, StructuredLogger
from .metrics import ServiceMetrics

__all__ = ["CacheEntry", "FingerprintMemo", "TableCache"]


class FingerprintMemo:
    """Structural fingerprints memoized per grammar root object.

    A warm lookup costs two dictionary probes instead of an O(graph) hash
    walk.  Entries hold their root strongly, so an ``id`` is never reused
    while it is a key; at most 64 roots are kept, LRU-evicted.  Safe to
    share across threads.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[int, Tuple[Any, str]]" = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, grammar: Any) -> Tuple[str, Any]:
        """``(fingerprint, root)`` for ``grammar`` (a root or a cfg grammar)."""
        root = as_root(grammar)
        key = id(root)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None and hit[0] is root:
                self._entries.move_to_end(key)
                return hit[1], root
        return self.remember(root, structural_fingerprint(root)), root

    def remember(self, root: Language, fingerprint: str) -> str:
        """Memoize a fingerprint already computed for ``root``; returns it."""
        with self._lock:
            self._entries[id(root)] = (root, fingerprint)
            while len(self._entries) > 64:
                self._entries.popitem(last=False)
        return fingerprint


class CacheEntry:
    """One cached grammar: the shared compiled table and its metrics.

    ``table`` is the service-private :class:`GrammarTable` every
    recognition rides (thread-safe per its own contract), and the seed of
    every worker thread's tree parser (:meth:`repro.serve.ParseService`
    builds each from ``table.root``, which the parser copies).  Holders of
    an entry keep the table alive across cache eviction.
    """

    __slots__ = ("fingerprint", "table", "engine_metrics")

    def __init__(
        self,
        fingerprint: str,
        table: GrammarTable,
        engine_metrics: Metrics,
    ) -> None:
        self.fingerprint = fingerprint
        self.table = table
        #: The table's private engine counter bag (advanced only under the
        #: table lock); aggregated by :meth:`repro.serve.ParseService.stats`.
        self.engine_metrics = engine_metrics

    def __repr__(self) -> str:
        return "CacheEntry({}..., {!r})".format(self.fingerprint[:12], self.table)


class TableCache:
    """Bounded LRU of :class:`CacheEntry` objects keyed by grammar structure."""

    def __init__(
        self,
        capacity: int = 32,
        metrics: Optional[ServiceMetrics] = None,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("table cache capacity must be >= 1, got {}".format(capacity))
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.logger = logger if logger is not None else NULL_LOGGER
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: In-flight compilations, so concurrent misses compile once.
        self._building: Dict[str, "Future[CacheEntry]"] = {}

    # ------------------------------------------------------------------ API
    def get_or_compile(self, grammar: object, fingerprint: Optional[str] = None) -> CacheEntry:
        """Return the warm entry for ``grammar``, compiling it on first sight.

        A hit (by structural fingerprint) refreshes the entry's LRU
        position.  A miss compiles a service-private table; a miss that
        races another thread's in-flight compile of the same grammar waits
        for it instead of compiling twice (counted as a hit — the table was
        shared, not rebuilt).  Callers that already know the grammar's
        fingerprint (the service memoizes it per root object) pass it in to
        skip the O(graph) hash walk on warm lookups.
        """
        root = as_root(grammar)
        if fingerprint is None:
            fingerprint = structural_fingerprint(root)
        future: "Optional[Future[CacheEntry]]" = None
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.metrics.inc("table_hits")
                return entry
            future = self._building.get(fingerprint)
            if future is None:
                future = Future()
                self._building[fingerprint] = future
                building = True
            else:
                building = False
        if not building:
            self.metrics.inc("table_hits")
            return future.result()
        try:
            entry = self._compile(root, fingerprint)
        except BaseException as exc:
            with self._lock:
                self._building.pop(fingerprint, None)
            future.set_exception(exc)
            raise
        self._insert(fingerprint, entry)
        self.metrics.inc("table_misses")
        future.set_result(entry)
        return entry

    def warm_start(
        self,
        paths: Iterable[str],
        grammar_for: Any,
    ) -> List[CacheEntry]:
        """Preload serialized tables into the cache without a request.

        ``paths`` name table documents written by
        :func:`repro.compile.save_table`; ``grammar_for`` resolves each
        document's fingerprint to its grammar — a mapping
        ``fingerprint → grammar``, a one-argument callable, or a single
        grammar (when every path belongs to it).  Each document is
        restored into a service-private table
        (:func:`repro.compile.restore_table` — strict, so a wrong grammar
        is refused, and **zero derivations**: loaded tables run warm
        straight from disk) and cached under the document's fingerprint,
        the key :meth:`get_or_compile` looks up, so the next request for
        that grammar is a ``table_hits`` instead of a compile.  Grammars
        already cached are skipped (the live table is at least as warm).
        Returns the entries inserted, in path order; each insertion is
        metered as ``tables_warm_started`` and may LRU-evict exactly like
        a compile.

        A resolver returning ``None`` (or a mapping without the
        fingerprint) raises ``KeyError`` naming the fingerprint — a store
        directory with a stray table must fail loudly, not half-load.
        """
        inserted: List[CacheEntry] = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            fingerprint = data.get("fingerprint")
            grammar = self._resolve_grammar(grammar_for, fingerprint)
            with self._lock:
                already = fingerprint in self._entries
            if already:
                continue
            engine_metrics = Metrics()
            table = restore_table(data, grammar, metrics=engine_metrics)
            entry = CacheEntry(fingerprint, table, engine_metrics)
            # A concurrent compile may have cached it meanwhile; keep that one.
            if self._insert(fingerprint, entry, replace=False):
                self.metrics.inc("tables_warm_started")
                self.logger.log("table_warm_started", fingerprint=fingerprint, path=path)
                inserted.append(entry)
        return inserted

    def _insert(self, fingerprint: str, entry: CacheEntry, replace: bool = True) -> bool:
        """Cache ``entry``, LRU-evicting past capacity; False when it kept an existing one.

        ``replace=True`` is a finished compile, which also retires its
        in-flight marker under the same lock.
        """
        with self._lock:
            if replace:
                self._building.pop(fingerprint, None)
            elif fingerprint in self._entries:
                return False
            self._entries[fingerprint] = entry
            evicted = []
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False)[0])
        if evicted:
            self.metrics.inc("tables_evicted", len(evicted))
            for stale in evicted:
                self.logger.log("table_evicted", fingerprint=stale, reason="capacity")
        return True

    @staticmethod
    def _resolve_grammar(grammar_for: Any, fingerprint: str) -> object:
        """Resolve a warm-start grammar source to the grammar for ``fingerprint``."""
        if callable(grammar_for):
            grammar = grammar_for(fingerprint)
        elif hasattr(grammar_for, "get") and hasattr(grammar_for, "__getitem__"):
            grammar = grammar_for.get(fingerprint)
        else:
            grammar = grammar_for  # a single grammar for every path
        if grammar is None:
            raise KeyError(
                "warm_start has no grammar for fingerprint {!r}".format(fingerprint)
            )
        return grammar

    def _compile(self, root: Language, fingerprint: str) -> CacheEntry:
        """Build a service-private table for ``root``."""
        started = time.perf_counter()
        engine_metrics = Metrics()
        table = GrammarTable(root, metrics=engine_metrics, fingerprint=fingerprint)
        self.logger.log(
            "table_compiled",
            fingerprint=fingerprint,
            seconds=time.perf_counter() - started,
        )
        return CacheEntry(fingerprint, table, engine_metrics)

    # ------------------------------------------------------------ inspection
    def peek(self, fingerprint: str) -> Optional[CacheEntry]:
        """The entry for ``fingerprint`` without touching LRU order, or None."""
        with self._lock:
            return self._entries.get(fingerprint)

    def entries(self) -> List[CacheEntry]:
        """The cached entries, least- to most-recently used."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached table (in-flight holders keep theirs alive)."""
        with self._lock:
            dropped = list(self._entries)
            self._entries.clear()
        if dropped:
            self.metrics.inc("tables_evicted", len(dropped))
            for fingerprint in dropped:
                self.logger.log("table_evicted", fingerprint=fingerprint, reason="clear")

    def __repr__(self) -> str:
        return "TableCache({}/{} entries)".format(len(self), self.capacity)
