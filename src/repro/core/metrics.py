"""Instrumentation counters for the derivative parser.

The paper's evaluation (Section 4) is largely about *counting things*:

* Figure 7 counts calls to ``nullable?`` in the improved parser relative to
  the original implementation,
* Figure 10 counts how many grammar nodes ever receive more than one
  ``derive`` memoization entry,
* Figure 11 counts uncached calls to ``derive`` under the single-entry
  memoization strategy versus full hash tables,
* Section 3 bounds the run time by the number of grammar nodes constructed.

:class:`Metrics` is a plain counter bag that the parser components update as
they run.  It is intentionally lightweight — a handful of integer attributes —
so that enabling instrumentation does not meaningfully perturb the timings
used for Figures 6 and 12.

**Concurrency contract.**  Counter bumps are plain ``+=`` on integer
attributes — a read-modify-write that can lose updates when two threads hit
one instance unsynchronized, so a shared :class:`Metrics` must only be
advanced under a lock the writers agree on.  The two multi-threaded users
in the tree both do exactly that, each in one of the two sanctioned
patterns: the compiled :class:`~repro.compile.automaton.GrammarTable`
advances its metrics only on paths serialized by the table lock (warm,
lock-free walks never touch metrics), and :class:`repro.serve.ParseService`
gives each worker its own private instance and folds them into an aggregate
with :meth:`Metrics.merge` under the service's metrics lock.  Everything
else — one parser, one thread — needs no synchronization at all.

This module is the *count* domain of the tree's observability: how many
times the engines did what.  The *time* domain — request latency
histograms, per-stage span traces, quantiles — lives in :mod:`repro.obs`,
whose :class:`~repro.obs.Histogram` shards and folds exactly like
:meth:`Metrics.merge` but over log-bucketed durations instead of integer
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

__all__ = ["Metrics", "MetricsSnapshot"]


@dataclass
class MetricsSnapshot:
    """An immutable copy of the counter values at a point in time."""

    values: Dict[str, int] = field(default_factory=dict)

    def __getitem__(self, key: str) -> int:
        return self.values.get(key, 0)

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Return the per-counter difference ``self - earlier``."""
        keys = set(self.values) | set(earlier.values)
        return MetricsSnapshot(
            {key: self.values.get(key, 0) - earlier.values.get(key, 0) for key in keys}
        )


@dataclass
class Metrics:
    """Counters shared by the derivative, nullability and memoization layers.

    Attributes
    ----------
    nodes_created:
        Total grammar nodes constructed (``g`` in Section 3), including the
        cycle placeholders counted by ``placeholders_created``.
    placeholders_created:
        Partially constructed nodes ``derive`` built because a cycle looked
        up a derivative still in progress (Section 2.5.2); acyclic derives
        build none.
    derive_calls:
        Every invocation of ``derive`` (cached or not).
    derive_cache_hits / derive_uncached:
        Split of ``derive_calls`` into memo hits and real computations.
    memo_evictions:
        Number of single-entry memo evictions (Section 4.4's "forgetful"
        memoization replacing an old token entry with a new one).
    nullable_calls:
        Number of node evaluations performed by the nullability and
        emptiness analysis (:mod:`repro.core.nullability`); this is the
        quantity plotted in Figure 7.
    nullable_fixed_points:
        Number of times a cyclic dependency forced a full fixed-point
        computation rather than a direct recursive evaluation.
    fixpoint_node_evaluations:
        Transfer-function evaluations performed by the unified fixed-point
        kernel (:mod:`repro.core.fixpoint`) across *every* analysis sharing
        this Metrics instance — grammar nullability and emptiness, the
        classical CFG analyses and regex nullability all count here.
    fixpoint_solves:
        Completed fixed points run by the kernel (each one promotes its
        tentative values to final).
    compaction_rewrites:
        Number of times a smart constructor applied a reduction rule, plus
        the dead children cut to ``∅`` at a derive step's end or, once, in
        the grammar itself when an engine is built.
    parse_null_calls:
        Non-cached invocations of ``parse_null``.
    edits_applied / edit_tokens_refed / edit_splices:
        Incremental-reparse activity (:mod:`repro.incremental`): edits
        applied to documents, tokens actually re-derived while replaying
        the suffix after an edit, and edits that re-converged with the old
        parse and spliced its checkpoint trail instead of re-feeding to
        the end.
    dense_hits / dense_fallbacks:
        Recognition routing on the compiled engine: tokens resolved by a
        state's edge dict vs. tokens resolved by
        :meth:`~repro.compile.automaton.GrammarTable.step_slow` (cold edge,
        never-seen kind, a kind-impure table, or a transient cursor).  The
        executor counts locally per run and folds the totals in under the
        table lock.
    states_shared / keys_skipped:
        Canonical state interning in the compiled
        :class:`~repro.compile.automaton.GrammarTable`: newly derived states
        whose canonical key matched an existing state (the transition
        re-enters that state), and new states whose key walk passed its
        cost bound and were interned by node identity alone.
    """

    nodes_created: int = 0
    placeholders_created: int = 0
    derive_calls: int = 0
    derive_cache_hits: int = 0
    derive_uncached: int = 0
    memo_evictions: int = 0
    nullable_calls: int = 0
    nullable_fixed_points: int = 0
    fixpoint_node_evaluations: int = 0
    fixpoint_solves: int = 0
    compaction_rewrites: int = 0
    parse_null_calls: int = 0
    tokens_consumed: int = 0
    edits_applied: int = 0
    edit_tokens_refed: int = 0
    edit_splices: int = 0
    dense_hits: int = 0
    dense_fallbacks: int = 0
    states_shared: int = 0
    keys_skipped: int = 0

    def snapshot(self) -> MetricsSnapshot:
        """Capture the current counter values."""
        return MetricsSnapshot({f.name: getattr(self, f.name) for f in fields(self)})

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def merge(self, other: "Metrics") -> None:
        """Add ``other``'s counters into this instance (aggregation primitive).

        The contention-safe way to meter parallel work: give each worker a
        private :class:`Metrics`, then fold the workers' bags into one
        aggregate under a lock the aggregator owns (``merge`` itself does
        not synchronize — the caller's lock is the contract, see the module
        docstring).
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:
        parts = ["{}={}".format(key, value) for key, value in self.as_dict().items() if value]
        return "Metrics({})".format(", ".join(parts))
