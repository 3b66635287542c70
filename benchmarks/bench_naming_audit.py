"""E9 — Definition 5 / Lemmas 6–7 / Theorem 8: the naming audit, at benchmark scale.

Runs the worst-case grammar with the naming instrumentation enabled and
reports, for growing inputs of pairwise-distinct tokens, the number of
distinct node names against the Theorem 8 bound, plus whether the two lemmas'
invariants held.  This is the executable version of the paper's Figure 5
walk-through.
"""

from repro.bench import emit_json, format_table, naming_audit_rows
from repro.core import CompactionConfig, DerivativeParser
from repro.grammars import worst_case_language
from repro.workloads import repeated_token_stream


def test_naming_audit(run_once):
    rows = naming_audit_rows(sizes=(2, 4, 6, 8, 10))
    print()
    print(
        format_table(
            ["tokens", "distinct names", "Theorem 8 bound", "Lemma 6 holds", "Lemma 7 holds"],
            rows,
            title="Definition 5 naming audit on L = (L ◦ L) ∪ c",
        )
    )

    emit_json(
        [
            dict(
                zip(
                    ("tokens", "distinct_names", "theorem8_bound", "lemma6", "lemma7"),
                    row,
                )
            )
            for row in rows
        ],
        figure="naming-audit",
    )

    for _tokens, distinct, bound, lemma6, lemma7 in rows:
        assert lemma6 and lemma7
        assert distinct <= bound

    parser = DerivativeParser(
        worst_case_language(),
        naming=True,
        compaction=CompactionConfig.disabled(),
        optimize_grammar=False,
    )
    tokens = repeated_token_stream("c", 10, distinct=True)
    run_once(lambda: parser.recognize(tokens))
