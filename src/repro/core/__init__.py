"""Core parsing-with-derivatives implementation (the paper's contribution).

The public surface re-exported here is what most users need:

* grammar construction: :class:`Ref`, :func:`token`, :func:`any_token`,
  :func:`epsilon`, :data:`EMPTY`, plus the node classes themselves,
* parsing: :class:`DerivativeParser`, :func:`parse`, :func:`recognize`,
* forests: :func:`iter_trees`, :func:`count_trees`, :func:`first_tree`,
* configuration: :class:`CompactionConfig`, memoization strategy names,
* instrumentation: :class:`Metrics`, :class:`NamingScheme`.
"""

from .compaction import CompactionConfig, Compactor, optimize_initial_grammar
from .derivative import Deriver
from .errors import EmptyForestError, GrammarError, LexError, ParseError, ReproError
from .fixpoint import NOT_FINAL, FixpointAnalysis, FixpointSolver
from .forest import (
    FOREST_EMPTY,
    ForestAmb,
    ForestEmpty,
    ForestLeaf,
    ForestMap,
    ForestNode,
    ForestPair,
    ForestRef,
    count_trees,
    first_tree,
    iter_trees,
    tree_fingerprint,
    trees_equal,
)
from .forest_query import (
    RANKINGS,
    ForestQuery,
    Ranking,
    TreeDepthRanking,
    TreeSizeRanking,
    iter_trees_ranked,
    ranking_by_name,
    sample_trees,
)
from .languages import (
    EMPTY,
    Alt,
    Cat,
    Delta,
    Empty,
    Epsilon,
    Language,
    Reduce,
    Ref,
    Token,
    any_token,
    as_language,
    clone_graph,
    epsilon,
    graph_size,
    reachable_nodes,
    structural_fingerprint,
    terminal_nodes,
    token,
    token_kind,
    token_value,
)
from .memo import (
    MEMO_STRATEGIES,
    DeriveMemo,
    PerNodeDictMemo,
    PersistentDictMemo,
    SingleEntryMemo,
    make_memo,
    single_entry_fraction,
)
from .metrics import Metrics, MetricsSnapshot
from .naming import NamingAuditResult, NamingScheme, NodeName
from .nullability import (
    DEAD,
    LIVE,
    NULLABLE,
    NullabilityAnalysis,
    NullabilityAnalyzer,
)
from .parse import (
    DerivativeParser,
    ParserSnapshot,
    ParserState,
    parse,
    recognize,
    validate_grammar,
)
from .reductions import (
    IDENTITY,
    Compose,
    Constant,
    Identity,
    MapFirst,
    MapSecond,
    PairLeft,
    PairRight,
    ReassocToLeft,
    compose,
)

__all__ = [
    # languages
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
    "as_language",
    "token_kind",
    "token_value",
    "reachable_nodes",
    "graph_size",
    "terminal_nodes",
    "structural_fingerprint",
    "clone_graph",
    # parsing
    "DerivativeParser",
    "ParserState",
    "ParserSnapshot",
    "parse",
    "recognize",
    "validate_grammar",
    "Deriver",
    # forests
    "ForestNode",
    "ForestEmpty",
    "ForestLeaf",
    "ForestPair",
    "ForestMap",
    "ForestAmb",
    "ForestRef",
    "FOREST_EMPTY",
    "iter_trees",
    "count_trees",
    "first_tree",
    "trees_equal",
    "tree_fingerprint",
    # forest queries (count / top-k / sample)
    "ForestQuery",
    "Ranking",
    "TreeSizeRanking",
    "TreeDepthRanking",
    "RANKINGS",
    "ranking_by_name",
    "iter_trees_ranked",
    "sample_trees",
    # configuration
    "CompactionConfig",
    "Compactor",
    "optimize_initial_grammar",
    "DeriveMemo",
    "SingleEntryMemo",
    "PerNodeDictMemo",
    "PersistentDictMemo",
    "make_memo",
    "MEMO_STRATEGIES",
    "single_entry_fraction",
    # the unified analysis kernel
    "FixpointAnalysis",
    "FixpointSolver",
    "NOT_FINAL",
    # nullability and emptiness
    "NullabilityAnalyzer",
    "NullabilityAnalysis",
    "DEAD",
    "LIVE",
    "NULLABLE",
    # instrumentation
    "Metrics",
    "MetricsSnapshot",
    "NamingScheme",
    "NodeName",
    "NamingAuditResult",
    # reductions
    "Identity",
    "IDENTITY",
    "Compose",
    "Constant",
    "PairLeft",
    "PairRight",
    "MapFirst",
    "MapSecond",
    "ReassocToLeft",
    "compose",
    # errors
    "ReproError",
    "GrammarError",
    "ParseError",
    "EmptyForestError",
    "LexError",
]
