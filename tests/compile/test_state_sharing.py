"""New input re-enters existing compiled states (canonical state interning).

The compiled table derives tree-free and interns each new state by a
canonical key of its live graph, so a document the table has never seen
walks mostly through states other documents already built.  Without that,
every new token adds a state and the table grows with the input.
"""

from repro.compile import CompiledParser, GrammarTable
from repro.core import Metrics
from repro.grammars import catalan_grammar, json_grammar, pl0_grammar
from repro.workloads import catalan_tokens, json_document_tokens, pl0_tokens


def test_new_json_documents_add_few_states():
    table = GrammarTable(json_grammar().language())
    parser = CompiledParser(table=table)
    for seed in (0, 1):
        assert parser.recognize(json_document_tokens(2000, seed=seed)) is True
    warmed = table.state_count()
    for seed in (2, 3, 4):
        assert parser.recognize(json_document_tokens(2000, seed=seed)) is True
    assert table.state_count() <= warmed * 1.05
    assert table.stats()["states_shared"] > 0


def test_new_pl0_tokens_add_states_for_a_fraction_of_them():
    table = GrammarTable(pl0_grammar().language())
    parser = CompiledParser(table=table)
    assert parser.recognize(pl0_tokens(2000, seed=0)) is True
    warmed = table.state_count()
    new_tokens = 0
    for seed in (1, 2, 3, 4):
        tokens = pl0_tokens(1000, seed=seed)
        new_tokens += len(tokens)
        assert parser.recognize(tokens) is True
    assert table.state_count() - warmed <= 0.2 * new_tokens


def test_key_walk_stays_within_its_bound_on_catalan():
    metrics = Metrics()
    table = GrammarTable(catalan_grammar().language(), metrics=metrics)
    assert CompiledParser(table=table).recognize(catalan_tokens(80)) is True
    stats = table.stats()
    steps = table.transitions_derived
    assert stats["key_nodes_walked"] <= 4 * metrics.derive_uncached + 32 * steps
    # The bound bites here: most catalan states are too large to key.
    assert stats["keys_skipped"] > 0
    assert metrics.keys_skipped == stats["keys_skipped"]
    assert metrics.states_shared == stats["states_shared"]
