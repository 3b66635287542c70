"""Linear-growth gate for the tree path ("linear in practice", §4.3).

Parsing a long unambiguous stream with bounded nesting must do a flat
amount of derivation work per token, and the live grammar must stay
bounded.  Both are deterministic counts (no wall time): uncached derive
calls per token, and the number of live grammar nodes.  Over the 2,000
tokens below the live grammar holds 121–146 nodes on PL/0 and 73 on JSON.
Without the ``δ(L) ⇒ ε_t`` fold every completed PL/0 statement left a
δ-history that each later token derived again: uncached derives per token
climbed from ~100 to ~700 over 2k tokens, and the live grammar from ~280
to ~840 nodes.

The fixed-point work per token is gated too: nodes built over final
children are settled at construction, so the nullability/emptiness
kernel only runs on cyclic regions (22.3 evaluations per token on PL/0
in the last window, none on JSON; re-solving every derived node cost ~77
and ~30).

So is allocation: ``derive`` builds a placeholder node only where a cycle
looks up a derive in progress, and each step cuts the dead branches it
built, so in the last window PL/0 builds 20.9 nodes per token (1.5 of
them placeholders) and JSON 15.8, with 22.5 and 18.3 uncached derives.
Keeping the dead branches until a scheduled prune pass cost ~50 and ~19
nodes and ~60 and ~28 derives per token; building a placeholder before
every composite node cost ~101 and ~44 nodes on top.
"""

import pytest

from repro.bench.registry import CELLS_BY_ID
from repro.core import DerivativeParser
from repro.core.prune import live_nodes
from repro.workloads import json_document_tokens, pl0_tokens

#: Tokens per measuring window, and the stream length the gate covers.
WINDOW = 500
LENGTH = 2000
#: Fixed-point evaluations per token allowed in the last window.
MAX_EVALUATIONS_PER_TOKEN = {"pl0": 30, "json-documents": 2}
#: Grammar nodes, and cycle placeholders among them, built per token in the
#: last window.
MAX_NODES_PER_TOKEN = {"pl0": 30, "json-documents": 18}
MAX_PLACEHOLDERS_PER_TOKEN = {"pl0": 6, "json-documents": 0}
#: Uncached derives per token in the last window.
MAX_UNCACHED_PER_TOKEN = {"pl0": 32, "json-documents": 22}


@pytest.mark.parametrize(
    "cell_id, generator", [("pl0", pl0_tokens), ("json-documents", json_document_tokens)]
)
def test_tree_path_work_and_live_size_stay_flat(cell_id, generator):
    tokens = generator(LENGTH, 0)[:LENGTH]
    assert len(tokens) == LENGTH
    parser = DerivativeParser(CELLS_BY_ID[cell_id].grammar.factory())
    state = parser.start()
    uncached = [parser.metrics.derive_uncached]
    evaluations = [parser.metrics.fixpoint_node_evaluations]
    built = [(parser.metrics.nodes_created, parser.metrics.placeholders_created)]
    live_at = {}
    for position, token in enumerate(tokens, 1):
        state.feed(token)
        assert not state.failed
        if position % WINDOW == 0:
            uncached.append(parser.metrics.derive_uncached)
            evaluations.append(parser.metrics.fixpoint_node_evaluations)
            built.append((parser.metrics.nodes_created, parser.metrics.placeholders_created))
            live_at[position] = len(live_nodes(state.language))
    first = uncached[1] - uncached[0]
    last = uncached[-1] - uncached[-2]
    assert last <= 1.25 * first, (first, last)
    assert last / WINDOW <= MAX_UNCACHED_PER_TOKEN[cell_id], uncached
    assert live_at[LENGTH] <= 1.5 * live_at[WINDOW], live_at
    last_evaluations = (evaluations[-1] - evaluations[-2]) / WINDOW
    assert last_evaluations <= MAX_EVALUATIONS_PER_TOKEN[cell_id], evaluations
    nodes = (built[-1][0] - built[-2][0]) / WINDOW
    placeholders = (built[-1][1] - built[-2][1]) / WINDOW
    assert nodes <= MAX_NODES_PER_TOKEN[cell_id], built
    assert placeholders <= MAX_PLACEHOLDERS_PER_TOKEN[cell_id], built
