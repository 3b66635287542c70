"""Each engine owns its grammar graph.

Every engine copies the graph a caller hands it and optimizes, cuts,
memoizes and names only its copy, so the caller's grammar reads the same
before and after any parse: same structure, and no field an engine keeps
on its nodes written.  The one exception is the compiled table's anchor on
the caller's root (``compiled_table``), which is how parsers over one root
share one table.
"""

import gc
import threading
import weakref

import pytest

from repro.baseline import OriginalParser
from repro.cfg.bnf import parse_bnf
from repro.compile import CompiledParser
from repro.core import CompactionConfig, DerivativeParser, Ref, token
from repro.core.errors import ParseError
from repro.core.languages import EMPTY, reachable_nodes, structural_fingerprint
from repro.grammars.pl0 import PL0_GRAMMAR_TEXT
from repro.incremental import IncrementalDocument
from repro.serve import ParseService
from repro.workloads.pl0 import pl0_tokens

#: Every field an engine may keep on a node, besides its children.
FIELDS = (
    "name",
    "under_construction",
    "compiled_table",
    "memo_epoch",
    "memo_token",
    "memo_result",
    "memo_tokens",
    "memo_table",
    "state",
    "null_parse_epoch",
    "null_parse_result",
)


def pl0_root():
    """A private PL/0 graph (the cached ``pl0_grammar()`` is process-wide)."""
    return parse_bnf(PL0_GRAMMAR_TEXT).to_language()


def dead_branch_root():
    """``S = a S b | a b | D`` where ``D = x D`` generates nothing."""
    dead = Ref("D")
    dead.set(token("x") + dead)
    start = Ref("S")
    start.set((token("a") + start + token("b")) | (token("a") + token("b")) | dead)
    return start


def footprint(root, skip_root_anchor=False):
    """The fingerprint and every node's children and engine fields."""
    nodes = reachable_nodes(root)
    rows = []
    for node in nodes:
        fields = [getattr(node, name) for name in FIELDS]
        if skip_root_anchor and node is root:
            fields[FIELDS.index("compiled_table")] = None
        rows.append((node, node.children(), tuple(fields)))
    return structural_fingerprint(root), len(nodes), rows


def drive(parser, tokens, bad):
    """Recognize, parse and reject through ``parser``."""
    assert parser.recognize(tokens)
    parser.parse(tokens)
    assert not parser.recognize(bad)
    with pytest.raises(ParseError):
        parser.parse(bad)


def drive_document(engine, root, tokens, bad):
    document = IncrementalDocument(root, tokens, checkpoint_every=8, engine=engine)
    document.tree()
    document.apply_edit(len(tokens) - 1, len(tokens), [])
    document.failure_position()
    document.apply_edit(0, len(document), bad)
    assert document.failure_position() is not None


GRAMMARS = {
    "pl0": (pl0_root, pl0_tokens(40, seed=3), pl0_tokens(40, seed=3)[:12] + pl0_tokens(40)[:4]),
    "dead-branch": (dead_branch_root, list("aaabbb"), list("aabbb")),
}

ENGINES = {
    "derivative": lambda root, tokens, bad: drive(DerivativeParser(root), tokens, bad),
    "derivative-uncompacted": lambda root, tokens, bad: drive(
        DerivativeParser(root, compaction=False), tokens, bad
    ),
    "derivative-2011-rules": lambda root, tokens, bad: drive(
        DerivativeParser(root, compaction=CompactionConfig.original_2011()), tokens, bad
    ),
    "derivative-naming": lambda root, tokens, bad: drive(
        DerivativeParser(root, naming=True), tokens, bad
    ),
    "compiled": lambda root, tokens, bad: drive(CompiledParser(root), tokens, bad),
    "original": lambda root, tokens, bad: drive(OriginalParser(root), tokens, bad),
    "document-interpreted": lambda root, tokens, bad: drive_document(
        "interpreted", root, tokens, bad
    ),
    "document-compiled": lambda root, tokens, bad: drive_document(
        "compiled", root, tokens, bad
    ),
}


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_leaves_the_callers_grammar_untouched(grammar, engine):
    build, tokens, bad = GRAMMARS[grammar]
    root = build()
    before = footprint(root)
    ENGINES[engine](root, tokens, bad)
    anchored = engine in ("compiled", "document-compiled")
    assert footprint(root, skip_root_anchor=anchored) == before
    assert (root.compiled_table is not None) == anchored


def test_a_parser_built_after_another_parses_the_callers_grammar():
    root = dead_branch_root()
    size = len(reachable_nodes(root))
    DerivativeParser(root)
    assert DerivativeParser(root, compaction=False).grammar_size() == size
    assert OriginalParser(root, compaction=False).grammar_size() == size


def test_service_fingerprint_does_not_drift_after_an_in_process_compile():
    root = pl0_root()
    with ParseService(workers=1) as service:
        before = service.table_for(root).fingerprint
    parser = CompiledParser(root)
    assert parser.recognize(pl0_tokens(60, seed=1))
    parser.parse(pl0_tokens(60, seed=1))
    with ParseService(workers=1) as service:
        assert service.table_for(root).fingerprint == before


def test_dropped_anchored_tables_leave_nothing_on_the_shared_empty_node():
    tables = []
    finalizers = []
    for seed in range(3):
        root = pl0_root()
        parser = CompiledParser(root)
        parser.recognize(pl0_tokens(60, seed=seed))
        parser.recognize(pl0_tokens(60, seed=seed)[:20] + pl0_tokens(60)[:5])
        tables.append(weakref.ref(parser.table))
        finalizers.append(parser.table.memo._finalizer)
        del root, parser
    gc.collect()
    assert [table() for table in tables] == [None] * 3
    assert not any(finalizer.alive for finalizer in finalizers)
    assert EMPTY.memo_table is None
    assert EMPTY.memo_tokens is None


def test_compiled_tree_extraction_does_not_take_the_table_lock():
    parser = CompiledParser(pl0_root())
    tokens = pl0_tokens(40, seed=2)
    assert parser.recognize(tokens)
    held = threading.Event()
    release = threading.Event()

    def hold_table_lock():
        with parser.table.lock:
            held.set()
            release.wait(30)

    results = {}
    holder = threading.Thread(target=hold_table_lock)
    extractor = threading.Thread(target=lambda: results.update(tree=parser.parse(tokens)))
    holder.start()
    try:
        assert held.wait(10)
        extractor.start()
        extractor.join(10)
        assert not extractor.is_alive()
    finally:
        release.set()
        holder.join()
        extractor.join()
    assert results["tree"] == DerivativeParser(pl0_root()).parse(tokens)
