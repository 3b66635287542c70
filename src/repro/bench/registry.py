"""The grammar zoo: a declarative engine × grammar × workload registry.

Every evaluation pairing in this repository — which grammar is exercised by
which deterministic workload, under which engines, gated by which checks —
used to be hard-coded per benchmark file.  This module makes the matrix
*data*: immutable specs bind a grammar factory to a sized/seeded workload
generator, the engines that can run the pair, and the gates the pair must
pass.  Benchmarks iterate registry cells instead of private ``workloads()``
tuples, the differential suites parameterize over the same cells (so a new
zoo entry automatically flows through recognition/tree/failure-position
parity, serialization round-trips, edge-dict warm-up and incremental
convergence), and ``python -m repro.bench`` drives the whole matrix from
the command line.

Registry vocabulary
-------------------

Engines (``BenchCell.engines``):

``derivative``
    The interpreted :class:`~repro.core.DerivativeParser`.
``compiled``
    :class:`~repro.compile.CompiledParser` over an interned grammar table.
``earley`` / ``glr``
    The oracle engines (GLR is recognition-only).
``pooled``
    :class:`~repro.serve.PooledParseService` — multi-process recognition.

Gates (``BenchCell.gates``):

``differential``
    All cell engines agree on recognition and failure positions, over valid
    and corrupted streams.
``trees``
    Tree-capable engines produce identical parse trees (unambiguous cells).
``ambiguity``
    ``count_trees(parse_forest(...))`` equals the grammar's closed-form
    reference count (``GrammarSpec.forest_count``).
``forest``
    The forest-query layer's answers check out on the cell's forests: the
    exact *integer* count matches the closed form, ranked (top-k)
    extraction emits non-decreasing scores, and same-seed sampling
    replays byte-identically — all without enumerating the forest, so the
    gate holds even on astronomically ambiguous cells.
``serialization``
    A saved + reloaded grammar table reproduces recognition verbatim.
``dense``
    The compiled edge-dict walk agrees with interpreted recognition.
``incremental``
    :class:`~repro.incremental.IncrementalDocument` edits converge to the
    from-scratch result.
``pooled``
    The worker pool agrees with single-process recognition.

A guard test (``tests/differential/test_registry_parity.py``) fails if a
zoo grammar is registered without differential coverage, so the matrix
cannot silently grow unchecked cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..grammars import (
    arithmetic_grammar,
    balanced_parens_grammar,
    binary_sum_grammar,
    catalan_grammar,
    dangling_else_grammar,
    expression_grammar,
    json_grammar,
    pl0_grammar,
    python_grammar,
    sexpr_grammar,
)
from ..lexer.tokens import Tok
from ..workloads import (
    ASTRONOMICAL_LEAVES,
    ASTRONOMICAL_QUICK_LEAVES,
    ambiguous_sum_tokens,
    arithmetic_tokens,
    catalan_count,
    catalan_tokens,
    dangling_else_count,
    dangling_else_tokens,
    expression_tokens,
    generate_program,
    json_document_tokens,
    nested_parens_tokens,
    pl0_tokens,
    sexpr_tokens,
)

__all__ = [
    "GrammarSpec",
    "WorkloadSpec",
    "BenchCell",
    "ENGINES",
    "GATES",
    "CELLS",
    "CELLS_BY_ID",
    "bench_workload",
    "cells_for_gate",
    "cells_for_engine",
    "zoo_grammar_ids",
]


#: Every engine name a cell may declare.
ENGINES: Tuple[str, ...] = ("derivative", "compiled", "earley", "glr", "pooled")

#: Every gate name a cell may declare.
GATES: Tuple[str, ...] = (
    "differential",
    "trees",
    "ambiguity",
    "forest",
    "serialization",
    "dense",
    "incremental",
    "pooled",
)


@dataclass(frozen=True)
class GrammarSpec:
    """One zoo grammar: an id, a factory, and its ambiguity contract.

    ``factory`` returns the (cached) :class:`~repro.cfg.grammar.Grammar`.
    Ambiguous grammars carry ``forest_count`` — the closed-form number of
    parses as a function of the *token stream* — so forest extraction can be
    gated against exact answers instead of other engines' opinions.
    """

    id: str
    description: str
    factory: Callable[[], object]
    ambiguous: bool = False
    forest_count: Optional[Callable[[Sequence[Tok]], int]] = None


@dataclass(frozen=True)
class WorkloadSpec:
    """One deterministic workload: ``generator(size, seed)`` → token stream.

    ``sizes`` are the full-benchmark sizes; ``quick_sizes`` the CI smoke
    sizes (``REPRO_BENCH_QUICK=1`` / ``--quick``).  Determinism is part of
    the contract: the same (size, seed) must yield the identical stream in
    every process, forever (the workload property tests enforce it).
    """

    id: str
    description: str
    generator: Callable[[int, int], List[Tok]]
    sizes: Tuple[int, ...]
    quick_sizes: Tuple[int, ...]
    seeds: Tuple[int, ...] = (0,)
    #: Token kinds whose *values* may be rewritten without leaving the
    #: grammar — what the incremental benchmarks feed to ``value_edit_at``.
    editable_kinds: Tuple[str, ...] = ()

    def streams(self, quick: bool = False) -> List[Tuple[int, int, List[Tok]]]:
        """All (size, seed, tokens) triples for this workload."""
        picked = self.quick_sizes if quick else self.sizes
        return [
            (size, seed, self.generator(size, seed))
            for size in picked
            for seed in self.seeds
        ]


@dataclass(frozen=True)
class BenchCell:
    """One registry cell: a grammar × workload pairing with engines + gates."""

    id: str
    grammar: GrammarSpec
    workload: WorkloadSpec
    engines: Tuple[str, ...]
    gates: Tuple[str, ...]
    notes: str = ""

    def __post_init__(self) -> None:
        for engine in self.engines:
            if engine not in ENGINES:
                raise ValueError(
                    "cell {!r}: unknown engine {!r}".format(self.id, engine)
                )
        for gate in self.gates:
            if gate not in GATES:
                raise ValueError("cell {!r}: unknown gate {!r}".format(self.id, gate))
        for gate in ("ambiguity", "forest"):
            if gate in self.gates and self.grammar.forest_count is None:
                raise ValueError(
                    "cell {!r}: {} gate needs GrammarSpec.forest_count".format(
                        self.id, gate
                    )
                )


def _sized(generator: Callable[[int], List[Tok]]) -> Callable[[int, int], List[Tok]]:
    """Adapt a seedless depth/size-only generator to the (size, seed) shape."""

    def generate(size: int, seed: int) -> List[Tok]:
        return generator(size)

    return generate


def _python_tokens(size: int, seed: int) -> List[Tok]:
    return generate_program(size, seed=seed).tokens


# --------------------------------------------------------------------------
# Grammar specs
# --------------------------------------------------------------------------
_PL0 = GrammarSpec("pl0", "Wirth's PL/0 teaching language", pl0_grammar)
_PYTHON = GrammarSpec("python-subset", "indentation-free Python subset", python_grammar)
_ARITH = GrammarSpec(
    "arithmetic", "left-recursive arithmetic expressions", arithmetic_grammar
)
_SEXPR = GrammarSpec("sexpr", "S-expressions over atoms", sexpr_grammar)
_PARENS = GrammarSpec(
    "balanced-parens", "nullable recursive balanced parentheses", balanced_parens_grammar
)
_JSON = GrammarSpec("json", "json.org value grammar over lexer kinds", json_grammar)
_EXPRESSION = GrammarSpec(
    "expression",
    "function expressions: precedence ladder, powers, unary signs, call sites",
    expression_grammar,
)
_CATALAN = GrammarSpec(
    "catalan",
    "S → S S | a — Catalan(n−1) parses of a^n",
    catalan_grammar,
    ambiguous=True,
    forest_count=lambda tokens: catalan_count(len(tokens)),
)
_DANGLING = GrammarSpec(
    "dangling-else",
    "dangling else — d parses at nesting depth d",
    dangling_else_grammar,
    ambiguous=True,
    forest_count=lambda tokens: dangling_else_count((len(tokens) - 3) // 3),
)
_BINARY_SUM = GrammarSpec(
    "binary-sum",
    "E → E + E | n — Catalan-many additions",
    binary_sum_grammar,
    ambiguous=True,
    forest_count=lambda tokens: catalan_count(sum(1 for t in tokens if t.kind == "n")),
)


# --------------------------------------------------------------------------
# Workload specs
# --------------------------------------------------------------------------
_PL0_W = WorkloadSpec(
    "pl0-programs",
    "seeded PL/0 programs",
    pl0_tokens,
    sizes=(240, 960),
    quick_sizes=(120,),
    seeds=(0, 1),
    editable_kinds=("NUMBER", "IDENT"),
)
_PYTHON_W = WorkloadSpec(
    "python-programs",
    "seeded synthetic Python programs",
    _python_tokens,
    sizes=(240, 960),
    quick_sizes=(120,),
    seeds=(0, 1),
    editable_kinds=("NUMBER", "NAME"),
)
_ARITH_W = WorkloadSpec(
    "arithmetic-expressions",
    "seeded arithmetic expressions",
    arithmetic_tokens,
    sizes=(120, 480),
    quick_sizes=(60,),
    seeds=(0, 1),
    editable_kinds=("NUMBER", "NAME"),
)
_SEXPR_W = WorkloadSpec(
    "sexpr-trees",
    "seeded nested S-expressions",
    sexpr_tokens,
    sizes=(120, 480),
    quick_sizes=(60,),
    seeds=(0, 1),
)
_PARENS_W = WorkloadSpec(
    "paren-nests",
    "fully nested parenthesis runs (depth-parameterized)",
    _sized(nested_parens_tokens),
    sizes=(40, 120),
    quick_sizes=(20,),
)
_JSON_W = WorkloadSpec(
    "json-documents",
    "large generated JSON documents (array-of-records shape)",
    json_document_tokens,
    sizes=(300, 1200),
    quick_sizes=(150,),
    seeds=(0, 1),
    editable_kinds=("NUMBER", "STRING"),
)
_EXPRESSION_W = WorkloadSpec(
    "function-expressions",
    "seeded function expressions with calls, powers and unary signs",
    expression_tokens,
    sizes=(120, 480),
    quick_sizes=(60,),
    seeds=(0, 1),
    editable_kinds=("NUMBER", "IDENT"),
)
_CATALAN_W = WorkloadSpec(
    "catalan-leaves",
    "a^n runs (forest grows as Catalan numbers)",
    _sized(catalan_tokens),
    sizes=(6, 10),
    quick_sizes=(5,),
)
_DANGLING_W = WorkloadSpec(
    "dangling-else-depths",
    "(if c then)^d s else s nests (forest grows linearly)",
    _sized(dangling_else_tokens),
    sizes=(4, 8),
    quick_sizes=(3,),
)
_BINARY_SUM_W = WorkloadSpec(
    "sum-chains",
    "n + n + ... + n chains (Catalan-many bracketings)",
    _sized(ambiguous_sum_tokens),
    sizes=(5, 9),
    quick_sizes=(4,),
)
_ASTRONOMICAL_W = WorkloadSpec(
    "catalan-astronomical",
    "a^n past enumerability: Catalan(40) ≈ 2.6e21 parses (quick: ≈1.8e13)",
    _sized(catalan_tokens),
    sizes=(ASTRONOMICAL_LEAVES,),
    quick_sizes=(ASTRONOMICAL_QUICK_LEAVES,),
)


# --------------------------------------------------------------------------
# The matrix
# --------------------------------------------------------------------------
_RECOGNIZERS = ("derivative", "compiled", "earley", "glr")

CELLS: Tuple[BenchCell, ...] = (
    BenchCell(
        id="pl0",
        grammar=_PL0,
        workload=_PL0_W,
        engines=_RECOGNIZERS + ("pooled",),
        gates=(
            "differential",
            "trees",
            "serialization",
            "dense",
            "incremental",
            "pooled",
        ),
        notes="the repository's anchor realistic-language cell",
    ),
    BenchCell(
        id="python-subset",
        grammar=_PYTHON,
        workload=_PYTHON_W,
        engines=_RECOGNIZERS + ("pooled",),
        gates=(
            "differential",
            "trees",
            "serialization",
            "dense",
            "incremental",
            "pooled",
        ),
        notes="largest grammar; the paper's headline workload",
    ),
    BenchCell(
        id="arithmetic",
        grammar=_ARITH,
        workload=_ARITH_W,
        engines=_RECOGNIZERS,
        gates=("differential", "trees", "serialization", "incremental"),
        notes="left recursion in its smallest form",
    ),
    BenchCell(
        id="sexpr",
        grammar=_SEXPR,
        workload=_SEXPR_W,
        engines=_RECOGNIZERS,
        gates=("differential", "trees", "serialization"),
    ),
    BenchCell(
        id="balanced-parens",
        grammar=_PARENS,
        workload=_PARENS_W,
        engines=_RECOGNIZERS,
        gates=("differential", "trees"),
        notes="nullable recursion: the derivative's hardest small case",
    ),
    BenchCell(
        id="json-documents",
        grammar=_JSON,
        workload=_JSON_W,
        engines=_RECOGNIZERS + ("pooled",),
        gates=("differential", "trees", "serialization", "dense", "pooled"),
        notes="data-format cell driven by large generated documents",
    ),
    BenchCell(
        id="expression",
        grammar=_EXPRESSION,
        workload=_EXPRESSION_W,
        engines=_RECOGNIZERS,
        gates=("differential", "trees", "serialization", "dense", "incremental"),
        notes="deep operator nesting through several mutually recursive levels",
    ),
    BenchCell(
        id="catalan",
        grammar=_CATALAN,
        workload=_CATALAN_W,
        engines=_RECOGNIZERS,
        gates=("differential", "ambiguity", "forest"),
        notes="forest-extraction cost isolated from recognition cost",
    ),
    BenchCell(
        id="dangling-else",
        grammar=_DANGLING,
        workload=_DANGLING_W,
        engines=_RECOGNIZERS,
        gates=("differential", "ambiguity", "forest"),
        notes="linear ambiguity: deep inputs stay countable",
    ),
    BenchCell(
        id="binary-sum",
        grammar=_BINARY_SUM,
        workload=_BINARY_SUM_W,
        engines=_RECOGNIZERS,
        gates=("differential", "ambiguity", "forest"),
        notes="the textbook ambiguous expression grammar",
    ),
    BenchCell(
        id="catalan-astronomical",
        grammar=_CATALAN,
        workload=_ASTRONOMICAL_W,
        engines=("derivative",),
        gates=("ambiguity", "forest"),
        notes="count/rank/sample where enumeration is physically impossible",
    ),
)

CELLS_BY_ID: Dict[str, BenchCell] = {cell.id: cell for cell in CELLS}
if len(CELLS_BY_ID) != len(CELLS):
    raise RuntimeError("duplicate registry cell ids")


def bench_workload(cell_id: str) -> BenchCell:
    """Resolve one registry cell for a benchmark file.

    Benchmarks pin their cells by id (their sizes and acceptance bars are
    tuned per pairing), but the grammar factory and workload generator come
    from the registry, so a pairing can never drift from what the
    differential suites cover.  Raises ``KeyError`` listing the valid ids.
    """
    try:
        return CELLS_BY_ID[cell_id]
    except KeyError:
        raise KeyError(
            "no registry cell {!r}; known cells: {}".format(
                cell_id, ", ".join(sorted(CELLS_BY_ID))
            )
        ) from None


def cells_for_gate(gate: str) -> Tuple[BenchCell, ...]:
    """All cells declaring ``gate`` (raises on unknown gate names)."""
    if gate not in GATES:
        raise ValueError("unknown gate {!r}".format(gate))
    return tuple(cell for cell in CELLS if gate in cell.gates)


def cells_for_engine(engine: str) -> Tuple[BenchCell, ...]:
    """All cells declaring ``engine`` (raises on unknown engine names)."""
    if engine not in ENGINES:
        raise ValueError("unknown engine {!r}".format(engine))
    return tuple(cell for cell in CELLS if engine in cell.engines)


def zoo_grammar_ids() -> Tuple[str, ...]:
    """Every distinct grammar id registered in the zoo, in cell order."""
    seen: List[str] = []
    for cell in CELLS:
        if cell.grammar.id not in seen:
            seen.append(cell.grammar.id)
    return tuple(seen)
