"""Warm and loaded edge-dict walks of the compiled table (repro.compile).

Once recognition has linked a grammar's states, the warm hot loop is one
small-dict probe per token over the states' repacked edge dicts, and a
table restored from the version-3 serialized layout reproduces it with
**zero** derivations and **zero** ``step_slow`` fallbacks — on accepted
streams and on rejected ones, because dead edges ride along.  This
benchmark prints, per workload (PL/0 and the Python subset, 4,000 tokens):

=================  ==========================================================
row                what is measured
=================  ==========================================================
warm               :meth:`CompiledParser.recognize` after the cold run has
                   linked and repacked the edges
loaded             same stream through a table round-tripped with
                   ``save_table``/``load_table``
states / edges     interned states and kind edges of the warm table
=================  ==========================================================

Every gate is deterministic: warm runs resolve every token by an edge
(all hits, zero fallbacks); the loaded table recognizes the stream with
zero derivations and zero fallbacks; and it rejects corrupted streams the
warm table saw (one token deleted, one replaced by junk) with the warm
table's verdict, again with zero derivations and zero fallbacks.  Timings
are reported, not gated: sub-millisecond walks on shared runners are noise.

Set ``REPRO_BENCH_JSON=<path>`` to also write the measured rows as JSON.
"""

from repro.bench import bench_workload, emit_json, format_table, time_call
from repro.compile import CompiledParser, GrammarTable, load_table, save_table
from repro.lexer.tokens import Tok

SIZE = 4_000
#: Registry cells this benchmark rides.
CELL_IDS = ("pl0", "python-subset")
#: Median-of-N keeps microsecond-scale warm walks out of timer noise.
WARM_ROUNDS = 5


def workloads():
    """(cell id, grammar, tokens) triples resolved from the zoo registry."""
    cells = [bench_workload(cell_id) for cell_id in CELL_IDS]
    return [
        (cell.id, cell.grammar.factory(), cell.workload.generator(SIZE, 1))
        for cell in cells
    ]


def corrupted(tokens):
    """The stream with its middle token deleted, and with it replaced by junk."""
    mid = len(tokens) // 2
    return [tokens[:mid] + tokens[mid + 1 :], tokens[:mid] + [Tok("@")] + tokens[mid + 1 :]]


def measure(name, grammar, tokens, path):
    table = GrammarTable(grammar.language())
    parser = CompiledParser(table=table)
    assert parser.recognize(tokens) is True  # cold: derive + link + repack
    bad_streams = corrupted(tokens)
    verdicts = [parser.recognize(stream) for stream in bad_streams]
    assert False in verdicts, "{}: no corrupted stream was rejected".format(name)

    warm = time_call(lambda: parser.recognize(tokens), repeats=WARM_ROUNDS)
    # Deterministic warmth gate: with the stream already walked once, every
    # token resolves by an edge dict — not one falls back to step_slow.
    accepted, hits, fallbacks = parser.recognize_with_stats(tokens)
    assert accepted is True
    assert fallbacks == 0, "{}: warm walk fell back {} times".format(name, fallbacks)
    assert hits == len(tokens)

    save_table(table, path)
    loaded_table = load_table(path, grammar)
    loaded = CompiledParser(table=loaded_table)
    accepted, hits, fallbacks = loaded.recognize_with_stats(tokens)
    assert accepted is True
    assert fallbacks == 0, "{}: loaded walk fell back {} times".format(name, fallbacks)
    assert hits == len(tokens)
    # The loaded table rejects what the warm table rejected, on its edges.
    for stream, verdict in zip(bad_streams, verdicts):
        accepted, hits, fallbacks = loaded.recognize_with_stats(stream)
        assert accepted is verdict
        assert fallbacks == 0, (
            "{}: loaded walk of a corrupted stream fell back {} times".format(
                name, fallbacks
            )
        )
    # The serialized edges cover the workload end to end: zero derivations.
    assert loaded_table.transitions_derived == 0, (
        "{}: loaded table derived {} transitions".format(
            name, loaded_table.transitions_derived
        )
    )
    loaded_warm = time_call(lambda: loaded.recognize(tokens), repeats=WARM_ROUNDS)

    return {
        "workload": name,
        "tokens": len(tokens),
        "warm_s": warm,
        "loaded_s": loaded_warm,
        "states": table.state_count(),
        "edges": sum(len(state.edges) - 1 for state in table.states()),
    }


def test_dense_core_edges(run_once, tmp_path):
    all_rows = [
        measure(name, grammar, tokens, str(tmp_path / (name + ".table.json")))
        for name, grammar, tokens in workloads()
    ]

    print()
    print(
        format_table(
            ["workload", "tokens", "warm (ms)", "loaded (ms)", "ns/token", "states", "edges"],
            [
                [
                    row["workload"],
                    "{:,}".format(row["tokens"]),
                    "{:.3f}".format(row["warm_s"] * 1e3),
                    "{:.3f}".format(row["loaded_s"] * 1e3),
                    "{:.0f}".format(row["warm_s"] * 1e9 / row["tokens"]),
                    "{:,}".format(row["states"]),
                    "{:,}".format(row["edges"]),
                ]
                for row in all_rows
            ],
            title="Warm and loaded edge-dict recognition",
        )
    )

    emit_json(all_rows, size=SIZE)

    # One representative configuration under pytest-benchmark's timer: the
    # warm walk of the PL/0 workload.
    _, grammar, tokens = workloads()[0]
    parser = CompiledParser(grammar)
    parser.recognize(tokens)  # link + repack the shared table
    run_once(lambda: parser.recognize(tokens))
