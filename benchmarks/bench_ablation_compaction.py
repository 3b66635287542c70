"""E7 — compaction ablation (Section 2.6 reports ≈90×; Section 4.3 adds rules).

Configurations measured on the same workload:

* full Section 4.3 compaction (the improved parser default),
* only the 2011 rule set,
* no compaction at all (the configuration the paper says made the original
  parser take three minutes for 31 lines).

The expected shape: every weakened configuration constructs more grammar
nodes than full compaction, and disabling compaction entirely is drastically
worse in both time and node count.
"""

from repro.bench import compaction_ablation, emit_json, format_table, tiny_python_workload
from repro.core import CompactionConfig, DerivativeParser
from repro.grammars import python_grammar


def test_compaction_ablation(run_once):
    rows = compaction_ablation(size=48)
    print()
    print(
        format_table(
            ["configuration", "seconds", "nodes created"],
            rows,
            title="Compaction ablation (48-token Python workload)",
        )
    )

    emit_json(
        [
            dict(zip(("configuration", "seconds", "nodes_created"), row))
            for row in rows
        ],
        figure="ablation-compaction",
    )

    by_label = {label: (seconds, nodes) for label, seconds, nodes in rows}
    full_seconds, full_nodes = by_label["full compaction (Section 4.3)"]
    none_seconds, none_nodes = by_label["no compaction"]
    assert none_nodes > full_nodes
    assert none_seconds > full_seconds

    grammar = python_grammar()
    tokens = tiny_python_workload(48)
    run_once(
        lambda: DerivativeParser(grammar, compaction=CompactionConfig.full()).recognize(tokens)
    )
