"""E2 — Figure 7: calls to ``nullable?`` in the improved parser vs the original.

The paper reports the improved implementation performs on average only 1.5 %
of the nullability computations of the original, thanks to the
dependency-tracking fixed point with final-value promotion (Section 4.2).
The reproduction measures both parsers' nullability node-visit counters on
identical workloads and reports the ratio, which should be a few percent or
less and shrink as inputs grow.

The improved parser decides nullability and emptiness with one analysis
(:mod:`repro.core.nullability`), so its count includes the emptiness work
behind each derive step's dead-branch cut, which the 2011 original never
did; the ratio is still far below the gate.
"""

from repro.bench import emit_json, fig07_nullable_calls, format_table, tiny_python_workload
from repro.core import DerivativeParser
from repro.grammars import python_grammar


def test_fig07_nullable_call_ratio(run_once):
    rows = fig07_nullable_calls()
    print()
    print(
        format_table(
            [
                "tokens",
                "improved nullable?/emptiness calls",
                "original nullable? calls",
                "ratio",
            ],
            rows,
            title="Figure 7 — nullable? calls relative to the original implementation",
        )
    )

    emit_json(
        [
            dict(
                zip(
                    (
                        "tokens",
                        "improved_calls",
                        "original_calls",
                        "ratio",
                    ),
                    row,
                )
            )
            for row in rows
        ],
        figure="fig07",
    )

    for _tokens, improved_calls, original_calls, ratio in rows:
        assert improved_calls < original_calls
        # The paper's average is 1.5%; allow generous slack but require the
        # reduction to be at least an order of magnitude.
        assert ratio < 0.10

    grammar = python_grammar()
    tokens = tiny_python_workload(12)
    parser = DerivativeParser(grammar)
    run_once(lambda: parser.recognize(tokens))
