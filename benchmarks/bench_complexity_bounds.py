"""E8 — Section 3: node construction is cubic in the worst case, linear in practice.

Two series are measured:

* the Figure 5 worst-case grammar ``L = (L ◦ L) ∪ c`` on inputs of distinct
  tokens, with compaction disabled — node counts must stay within the
  explicit Theorem 8 bound ``G·(n+1)²·(n+2)`` and grow polynomially (the
  fitted exponent must be far below exponential growth),
* the Python-subset grammar on synthetic programs with the improved parser —
  the fitted growth exponent of nodes-created versus input length should be
  close to 1 (the "linear in practice" observation of Section 4.1).
"""

from repro.analysis import growth_exponent, within_cubic_bound
from repro.bench import complexity_node_counts, emit_json, format_table, python_workload
from repro.core import DerivativeParser
from repro.core.languages import graph_size
from repro.grammars import python_grammar, worst_case_language


def test_complexity_bounds(run_once):
    results = complexity_node_counts()

    worst_sizes = [size for size, _count in results["worst_case"]]
    worst_counts = [count for _size, count in results["worst_case"]]
    python_sizes = [size for size, _count in results["python"]]
    python_counts = [count for _size, count in results["python"]]

    print()
    print(
        format_table(
            ["input tokens", "nodes created"],
            results["worst_case"],
            title="Worst-case grammar L = (L ◦ L) ∪ c, compaction disabled",
        )
    )
    print()
    print(
        format_table(
            ["input tokens", "nodes created"],
            results["python"],
            title="Python-subset grammar, improved parser",
        )
    )

    emit_json(
        [
            {"series": series, "tokens": size, "nodes_created": count}
            for series in ("worst_case", "python")
            for size, count in results[series]
        ],
        figure="complexity-bounds",
    )

    grammar_size = graph_size(worst_case_language())
    worst_exponent = growth_exponent(worst_sizes, worst_counts)
    python_exponent = growth_exponent(python_sizes, python_counts)
    print()
    print("worst-case growth exponent: {:.2f} (Theorem 8 bound: 3)".format(worst_exponent))
    print("python workload growth exponent: {:.2f} (paper: ~1, linear in practice)".format(python_exponent))

    # The raw construction counter includes a constant number of bookkeeping
    # nodes per derivative (cycle placeholders, δ factors), hence the
    # slack factor; the exact Theorem 8 bound on *distinct names* is audited
    # in bench_naming_audit.py and the naming property tests.  The fitted
    # exponent over such small inputs overshoots the asymptotic 3 because of
    # lower-order terms, so the assertion only excludes exponential blow-up
    # (an exponential series over 4→32 tokens would fit an exponent ≫ 5).
    assert within_cubic_bound(grammar_size, worst_sizes, worst_counts, slack=6.0)
    assert worst_exponent < 4.5
    assert python_exponent < 1.6

    grammar = python_grammar()
    tokens = python_workload(120)
    run_once(lambda: DerivativeParser(grammar).recognize(tokens))
