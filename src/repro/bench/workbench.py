"""Benchmark runners: one function per figure/table of the paper's evaluation.

Each ``figNN_*`` / ``*_table`` function returns plain data (lists of row
tuples) and is wrapped by a module in ``benchmarks/`` that prints the table
and feeds one representative configuration to ``pytest-benchmark``.  Keeping
the logic here means the figures can also be regenerated programmatically
(e.g. from the examples or from a notebook) without pytest.

Workload sizes are deliberately modest: the reproduction's parsers are pure
Python, and the original 2011 baseline — faithfully quadratic in its
nullability computation — needs minutes per hundred tokens on the Python
grammar, just as the paper reports it needing minutes for 31 lines.  The
sizes below keep the full benchmark suite to a few minutes while still
exhibiting every relative effect the paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..baseline import OriginalParser
from ..core import CompactionConfig, DerivativeParser
from ..core.memo import single_entry_fraction
from ..earley import EarleyParser
from ..glr import GLRParser, build_slr_table
from ..grammars import python_grammar, worst_case_language
from ..workloads import generate_program, repeated_token_stream
from .harness import speedup, time_call

__all__ = [
    "python_workload",
    "tiny_python_workload",
    "fig06_parser_comparison",
    "fig07_nullable_calls",
    "fig10_memo_entries",
    "fig11_uncached_derive",
    "fig12_single_entry_speedup",
    "speedup_summary_table",
    "compaction_ablation",
    "complexity_node_counts",
    "naming_audit_rows",
    "DEFAULT_SIZES",
    "ORIGINAL_SIZES",
]


#: Token counts for the fast parsers (improved PWD, Earley, GLR).
DEFAULT_SIZES: Tuple[int, ...] = (60, 120, 240, 480)
#: Token counts for the original 2011 parser (quadratic nullability makes it
#: hundreds of times slower, exactly as the paper reports; ~1 s/token here).
ORIGINAL_SIZES: Tuple[int, ...] = (6, 12)


def python_workload(tokens: int, seed: int = 7) -> list:
    """A synthetic Python program truncated/grown to roughly ``tokens`` tokens."""
    program = generate_program(tokens, seed=seed)
    return program.tokens


def tiny_python_workload(tokens: int) -> list:
    """A flat sequence of assignment statements of (almost exactly) ``tokens`` tokens.

    The original 2011 parser is so slow on the Python grammar (minutes for a
    few dozen tokens — the paper reports three minutes for 31 lines) that its
    data points need precise, very small token counts; simple ``NAME = NAME +
    NUMBER`` statements give 6 tokens per line and are in the subset grammar.
    """
    from ..lexer.tokens import Tok

    out: list = []
    index = 0
    while len(out) + 6 <= max(tokens, 6):
        out.extend(
            [
                Tok("NAME", "x{}".format(index)),
                Tok("="),
                Tok("NAME", "x{}".format(index)),
                Tok("+"),
                Tok("NUMBER", str(index)),
                Tok("NEWLINE", "\n"),
            ]
        )
        index += 1
    return out


# ---------------------------------------------------------------------------
# Figure 6 — seconds per token for the four parsers
# ---------------------------------------------------------------------------
def fig06_parser_comparison(
    sizes: Sequence[int] = DEFAULT_SIZES,
    original_sizes: Sequence[int] = ORIGINAL_SIZES,
    repeats: int = 1,
) -> List[Tuple[str, int, float, float]]:
    """Rows of (parser, tokens, seconds, seconds/token) — Figure 6's data."""
    grammar = python_grammar()
    table = build_slr_table(grammar)
    rows: List[Tuple[str, int, float, float]] = []

    for size in original_sizes:
        tokens = tiny_python_workload(size)
        seconds = time_call(lambda: OriginalParser(grammar).recognize(tokens), repeats)
        rows.append(("original-pwd", len(tokens), seconds, seconds / len(tokens)))

    for size in sizes:
        tokens = python_workload(size)
        seconds = time_call(lambda: EarleyParser(grammar).recognize(tokens), repeats)
        rows.append(("earley", len(tokens), seconds, seconds / len(tokens)))

    for size in sizes:
        tokens = python_workload(size)
        seconds = time_call(lambda: DerivativeParser(grammar).recognize(tokens), repeats)
        rows.append(("improved-pwd", len(tokens), seconds, seconds / len(tokens)))

    for size in sizes:
        tokens = python_workload(size)
        seconds = time_call(lambda: GLRParser(grammar, table=table).recognize(tokens), repeats)
        rows.append(("glr", len(tokens), seconds, seconds / len(tokens)))

    return rows


# ---------------------------------------------------------------------------
# Figure 7 — nullable? calls, improved relative to original
# ---------------------------------------------------------------------------
def fig07_nullable_calls(
    sizes: Sequence[int] = ORIGINAL_SIZES,
) -> List[Tuple[int, int, int, float]]:
    """Rows of (tokens, improved calls, original calls, ratio).

    The improved parser's calls are the evaluations of its one nullability
    and emptiness analysis, so they include emptiness work the original
    parser never does.
    """
    grammar = python_grammar()
    rows: List[Tuple[int, int, int, float]] = []
    for size in sizes:
        tokens = tiny_python_workload(size)
        improved = DerivativeParser(grammar)
        improved.recognize(tokens)
        original = OriginalParser(grammar)
        original.recognize(tokens)
        improved_calls = improved.metrics.nullable_calls
        original_calls = original.metrics.nullable_calls
        ratio = improved_calls / original_calls if original_calls else float("nan")
        rows.append((len(tokens), improved_calls, original_calls, ratio))
    return rows


# ---------------------------------------------------------------------------
# Figure 10 — fraction of derive memo tables with a single entry
# ---------------------------------------------------------------------------
def fig10_memo_entries(sizes: Sequence[int] = DEFAULT_SIZES) -> List[Tuple[int, int, int, float]]:
    """Rows of (tokens, single-entry nodes, multi-entry nodes, single fraction)."""
    grammar = python_grammar()
    rows: List[Tuple[int, int, int, float]] = []
    for size in sizes:
        tokens = python_workload(size)
        parser = DerivativeParser(grammar, memo="dict")
        parser.recognize(tokens)
        distribution = parser.memo.entry_distribution()
        single = distribution.get(1, 0)
        multi = sum(count for entries, count in distribution.items() if entries > 1)
        rows.append((len(tokens), single, multi, single_entry_fraction(distribution)))
    return rows


# ---------------------------------------------------------------------------
# Figure 11 — uncached derive calls: single-entry vs full hash tables
# ---------------------------------------------------------------------------
def fig11_uncached_derive(
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> List[Tuple[int, int, int, float]]:
    """Rows of (tokens, uncached single, uncached dict, single/dict)."""
    grammar = python_grammar()
    rows: List[Tuple[int, int, int, float]] = []
    for size in sizes:
        tokens = python_workload(size)
        single = DerivativeParser(grammar, memo="single")
        single.recognize(tokens)
        full = DerivativeParser(grammar, memo="dict")
        full.recognize(tokens)
        ratio = (
            single.metrics.derive_uncached / full.metrics.derive_uncached
            if full.metrics.derive_uncached
            else float("nan")
        )
        rows.append((len(tokens), single.metrics.derive_uncached, full.metrics.derive_uncached, ratio))
    return rows


# ---------------------------------------------------------------------------
# Figure 12 — wall-clock speedup of single-entry over full hash tables
# ---------------------------------------------------------------------------
def fig12_single_entry_speedup(
    sizes: Sequence[int] = DEFAULT_SIZES, repeats: int = 1
) -> List[Tuple[int, float, float, float]]:
    """Rows of (tokens, seconds single, seconds dict, speedup)."""
    grammar = python_grammar()
    rows: List[Tuple[int, float, float, float]] = []
    for size in sizes:
        tokens = python_workload(size)
        seconds_single = time_call(
            lambda: DerivativeParser(grammar, memo="single").recognize(tokens), repeats
        )
        seconds_dict = time_call(
            lambda: DerivativeParser(grammar, memo="dict").recognize(tokens), repeats
        )
        rows.append((len(tokens), seconds_single, seconds_dict, speedup(seconds_dict, seconds_single)))
    return rows


# ---------------------------------------------------------------------------
# Section 4.1 headline — relative factors between the parsers
# ---------------------------------------------------------------------------
def speedup_summary_table(
    comparison_size: int = 12,
    fast_size: int = 240,
    repeats: int = 1,
) -> Dict[str, float]:
    """The paper's headline factors, measured on this machine.

    Returns a dict with keys ``improved_vs_original`` (paper: ≈951×),
    ``improved_vs_earley`` (paper: ≈64.6×) and ``glr_vs_improved``
    (paper: Bison ≈25.2× faster than improved PWD).
    """
    grammar = python_grammar()
    table = build_slr_table(grammar)

    small_tokens = tiny_python_workload(comparison_size)
    original_seconds = time_call(lambda: OriginalParser(grammar).recognize(small_tokens), repeats)
    improved_small_seconds = time_call(
        lambda: DerivativeParser(grammar).recognize(small_tokens), repeats
    )

    fast_tokens = python_workload(fast_size)
    improved_seconds = time_call(lambda: DerivativeParser(grammar).recognize(fast_tokens), repeats)
    earley_seconds = time_call(lambda: EarleyParser(grammar).recognize(fast_tokens), repeats)
    glr_seconds = time_call(
        lambda: GLRParser(grammar, table=table).recognize(fast_tokens), repeats
    )

    return {
        "improved_vs_original": speedup(original_seconds, improved_small_seconds),
        "improved_vs_earley": speedup(earley_seconds, improved_seconds),
        "glr_vs_improved": speedup(improved_seconds, glr_seconds),
    }


# ---------------------------------------------------------------------------
# Section 2.6 / 4.3 — compaction ablation
# ---------------------------------------------------------------------------
def compaction_ablation(size: int = 48, repeats: int = 1) -> List[Tuple[str, float, int]]:
    """Rows of (configuration, seconds, nodes created) for compaction variants."""
    grammar = python_grammar()
    tokens = tiny_python_workload(size)
    configurations: List[Tuple[str, dict]] = [
        ("full compaction (Section 4.3)", dict(compaction=CompactionConfig.full())),
        ("2011 rules only", dict(compaction=CompactionConfig.original_2011())),
        ("no compaction", dict(compaction=CompactionConfig.disabled())),
    ]
    rows: List[Tuple[str, float, int]] = []
    for label, kwargs in configurations:
        parser_factory = lambda kwargs=kwargs: DerivativeParser(grammar, **kwargs)
        seconds = time_call(lambda: parser_factory().recognize(tokens), repeats)
        probe = parser_factory()
        probe.recognize(tokens)
        rows.append((label, seconds, probe.metrics.nodes_created))
    return rows


# ---------------------------------------------------------------------------
# Section 3 — node-count growth (worst case and in practice)
# ---------------------------------------------------------------------------
def complexity_node_counts(
    worst_case_sizes: Sequence[int] = (4, 8, 16, 32),
    python_sizes: Sequence[int] = (60, 120, 240, 480),
) -> Dict[str, List[Tuple[int, int]]]:
    """Node-construction counts for the worst-case grammar and Python workloads."""
    results: Dict[str, List[Tuple[int, int]]] = {"worst_case": [], "python": []}
    for size in worst_case_sizes:
        parser = DerivativeParser(
            worst_case_language(),
            compaction=CompactionConfig.disabled(),
            optimize_grammar=False,
        )
        tokens = repeated_token_stream("c", size, distinct=True)
        parser.recognize(tokens)
        results["worst_case"].append((size, parser.metrics.nodes_created))
    grammar = python_grammar()
    for size in python_sizes:
        parser = DerivativeParser(grammar)
        tokens = python_workload(size)
        parser.recognize(tokens)
        results["python"].append((len(tokens), parser.metrics.nodes_created))
    return results


# ---------------------------------------------------------------------------
# Definition 5 / Lemmas 6–7 — naming audit
# ---------------------------------------------------------------------------
def naming_audit_rows(sizes: Sequence[int] = (2, 4, 6, 8)) -> List[Tuple[int, int, int, bool, bool]]:
    """Rows of (tokens, distinct names, theorem-8 bound, lemma6, lemma7)."""
    rows: List[Tuple[int, int, int, bool, bool]] = []
    for size in sizes:
        parser = DerivativeParser(
            worst_case_language(),
            naming=True,
            compaction=CompactionConfig.disabled(),
            optimize_grammar=False,
        )
        tokens = repeated_token_stream("c", size, distinct=True)
        parser.recognize(tokens)
        audit = parser.naming.audit(size)
        rows.append(
            (
                size,
                audit.distinct_names,
                audit.theorem8_bound,
                audit.lemma6_holds,
                audit.lemma7_holds,
            )
        )
    return rows
