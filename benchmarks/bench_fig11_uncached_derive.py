"""E4 — Figure 11: extra uncached ``derive`` calls caused by single-entry memo.

The forgetful single-entry memo occasionally recomputes derivatives that full
hash tables would have remembered.  The paper measures the increase at 4.2 %
on average and never more than 4.8 %.  The reproduction compares the
``derive_uncached`` counters of the two strategies on identical workloads;
the ratio should stay close to 1 (a small number of extra recomputations).
"""

from repro.bench import emit_json, fig11_uncached_derive, format_table, python_workload
from repro.core import DerivativeParser
from repro.grammars import python_grammar


def test_fig11_uncached_derive_ratio(run_once):
    rows = fig11_uncached_derive()
    print()
    print(
        format_table(
            ["tokens", "uncached (single-entry)", "uncached (full hash)", "single/full"],
            rows,
            title="Figure 11 — uncached derive calls, single-entry vs full hash tables",
        )
    )

    emit_json(
        [
            dict(
                zip(("tokens", "uncached_single", "uncached_full", "ratio"), row)
            )
            for row in rows
        ],
        figure="fig11",
    )

    for _tokens, single_uncached, full_uncached, ratio in rows:
        assert single_uncached >= full_uncached * 0.99
        # The paper sees ≤ 1.048.  The grammar's own nodes keep every token
        # (repro.core.memo), so the extra derives come from derived nodes
        # alone; allow modest slack for a different grammar and workload mix.
        assert ratio < 1.1

    grammar = python_grammar()
    tokens = python_workload(120)
    run_once(lambda: DerivativeParser(grammar, memo="single").recognize(tokens))
