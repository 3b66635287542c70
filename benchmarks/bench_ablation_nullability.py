"""E10 — nullability ablation (Section 4.2).

Compares the number of nullability node evaluations performed by the improved
dependency-tracking fixed point against the naive re-traversal used by the
original implementation, on identical workloads.  This isolates the Section
4.2 improvement from the memoization and compaction changes (Figure 7 shows
the combined effect).  The improved parser's evaluations decide emptiness
along with nullability (one analysis, :mod:`repro.core.nullability`), so
its count includes work the naive sweep never does."""

from repro.bench import emit_json, format_table, nullability_ablation, tiny_python_workload
from repro.core import DerivativeParser
from repro.grammars import python_grammar


def test_nullability_ablation(run_once):
    rows = nullability_ablation()
    print()
    print(
        format_table(
            ["tokens", "improved nullable? visits", "naive nullable? visits"],
            rows,
            title="Nullability fixed point: improved vs naive visit counts",
        )
    )

    emit_json(
        [
            dict(zip(("tokens", "improved_visits", "naive_visits"), row))
            for row in rows
        ],
        figure="ablation-nullability",
    )

    for _tokens, improved_visits, naive_visits in rows:
        assert improved_visits * 10 < naive_visits

    grammar = python_grammar()
    tokens = tiny_python_workload(12)
    run_once(lambda: DerivativeParser(grammar).recognize(tokens))
