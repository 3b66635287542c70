"""E3 — Figure 10: how many nodes ever get more than one derive memo entry.

Section 4.4 motivates single-entry memoization with the observation that the
overwhelming majority of grammar nodes only ever receive one memo entry for
``derive``.  The reproduction parses with the full per-node hash-table
strategy, then inspects the table sizes: the fraction of single-entry tables
should be high (the paper's Figure 10 shows most files near 100 %, with a
second population around 80–90 %).
"""

from repro.bench import (
    emit_json,
    fig10_memo_entries,
    format_table,
    python_workload,
)
from repro.core import DerivativeParser
from repro.grammars import python_grammar


def test_fig10_single_entry_fraction(run_once):
    rows = fig10_memo_entries()
    print()
    print(
        format_table(
            ["tokens", "single-entry nodes", "multi-entry nodes", "single-entry fraction"],
            rows,
            title="Figure 10 — nodes with only one derive memoization entry",
        )
    )

    emit_json(
        [
            dict(
                zip(("tokens", "single_entry", "multi_entry", "fraction"), row)
            )
            for row in rows
        ],
        figure="fig10",
    )

    for _tokens, single, multi, fraction in rows:
        assert single > multi
        assert fraction > 0.6

    grammar = python_grammar()
    tokens = python_workload(120)
    run_once(lambda: DerivativeParser(grammar, memo="dict").recognize(tokens))
