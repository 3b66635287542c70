"""repro.serve — a concurrent, batched parsing service over the engines.

The engines below this package are single-caller artifacts: an interpreted
:class:`~repro.core.parse.DerivativeParser` is thread-confined with its
graph, and a compiled :class:`~repro.compile.automaton.GrammarTable` is a
shared read-mostly structure with a lock on its cold paths.
:class:`ParseService` packages those contracts into something a server can
hold: compiled tables cached in a bounded LRU keyed by grammar *structure*,
batches fanned over a worker pool (recognition on the shared table, tree
extraction on per-worker thread-confined parsers), an asyncio front door
that coalesces identical in-flight requests (``parse``/``recognize``/
``edit``), and checkpointable streaming sessions with idle eviction whose
token buffers are *editable* — each session is an
:class:`~repro.incremental.IncrementalDocument` over the shared table, so
``apply_edit`` reparses by rewinding a checkpoint trail instead of from
scratch.

Quickstart::

    from repro.serve import ParseService
    from repro.grammars import pl0_grammar
    from repro.workloads import pl0_tokens

    service = ParseService(workers=4)
    grammar = pl0_grammar()
    streams = [pl0_tokens(1_000, seed=s) for s in range(32)]

    accepted = service.recognize_many(grammar, streams)   # shared warm table
    outcomes = service.parse_many(grammar, streams)       # trees per stream
    session = service.open_session(grammar)               # streaming
    session.feed_all(streams[0]); session.accepts()
    service.stats()["service"]["table_hit_rate"]

When one interpreter's core is not enough, :class:`PooledParseService`
(:mod:`repro.serve.pool`) keeps the same batch API but fans requests over
N worker *processes*, sharded by grammar fingerprint on a consistent hash
ring so every worker's table cache stays hot for its shard.  Workers
warm-start from an on-disk :class:`TableStore` of serialized compiled
tables (zero derivations on fleet cold start), crashed workers are
respawned and their in-flight requests resent, and ``stats()`` /
``exposition()`` fold every worker's counters and histograms into one
fleet view.

``python -m repro.serve`` exposes the same machinery as a file-parsing
smoke-test CLI (:mod:`repro.serve.cli`; ``--pool N`` switches it onto the
process pool).
"""

from .cache import CacheEntry, TableCache
from .metrics import ServiceMetrics
from .pool import HashRing, PooledParseService, PreparedBatch
from .service import ForestOutcome, ParseOutcome, ParseService, ServiceClosed
from .sessions import ParseSession, SessionCheckpoint, SessionError, SessionManager
from .store import TableStore
from .transport import WorkerCrashed, WorkerError

__all__ = [
    "ParseService",
    "ParseOutcome",
    "ForestOutcome",
    "ServiceClosed",
    "TableCache",
    "CacheEntry",
    "ServiceMetrics",
    "ParseSession",
    "SessionManager",
    "SessionCheckpoint",
    "SessionError",
    "PooledParseService",
    "PreparedBatch",
    "HashRing",
    "TableStore",
    "WorkerCrashed",
    "WorkerError",
]
