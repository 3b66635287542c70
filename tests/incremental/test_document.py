"""Unit tests for repro.incremental: trails, documents, edits, restore."""

import pytest

from repro.compile import CompiledParser
from repro.core import DerivativeParser, ParseError
from repro.grammars import arithmetic_grammar, pl0_grammar
from repro.incremental import CheckpointTrail, IncrementalDocument
from repro.lexer.tokens import Tok
from repro.workloads import pl0_tokens, value_edit_at


ENGINES = ("interpreted", "compiled")


class TestCheckpointTrail:
    def test_record_query_truncate(self):
        class Snap:
            def __init__(self, position):
                self.position = position

        trail = CheckpointTrail()
        for position in (0, 16, 32, 48):
            trail.record(Snap(position))
        assert trail.positions() == [0, 16, 32, 48]
        assert trail.rewind_point(33).position == 32
        assert trail.rewind_point(32).position == 32  # boundary: exact hit
        assert trail.rewind_point(0).position == 0
        assert [s.position for s in trail.at_or_after(17)] == [32, 48]
        assert trail.truncate_beyond(30) == 2
        assert trail.positions() == [0, 16]

    def test_record_rejects_non_increasing(self):
        class Snap:
            def __init__(self, position):
                self.position = position

        trail = CheckpointTrail([Snap(0), Snap(8)])
        with pytest.raises(ValueError):
            trail.record(Snap(8))
        with pytest.raises(ValueError):
            CheckpointTrail([Snap(8), Snap(0)])

    def test_rewind_point_requires_an_anchor(self):
        trail = CheckpointTrail()
        with pytest.raises(LookupError):
            trail.rewind_point(5)


@pytest.mark.parametrize("engine", ENGINES)
class TestDocumentCheckpoints:
    """The document records its own trail: one snapshot per ``k`` alive tokens."""

    def test_checkpoint_every_k_alive_tokens(self, engine):
        tokens = pl0_tokens(60, seed=0)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=10, engine=engine
        )
        assert document.checkpoints() == [0] + [
            p for p in range(10, len(tokens) + 1, 10)
        ]
        mid = document.trail_snapshots()[3]
        resumed = document.parser.resume(mid)
        resumed.feed_all(tokens[mid.position :])
        assert resumed.accepts() == document.accepts()

    def test_no_checkpoint_past_the_failing_token(self, engine):
        tokens = pl0_tokens(60, seed=0)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=1, engine=engine
        )
        document.append(tokens[0])  # kills the parse of a complete program
        document.append(tokens[1])  # corpse: no-op
        assert document.failed
        assert document.structural_failure_position == len(tokens)
        assert all(p <= len(tokens) for p in document.checkpoints())
        assert document.checkpoints() == list(range(len(tokens) + 1))

    def test_checkpoint_every_validation(self, engine):
        for every in (0, -1):
            with pytest.raises(ValueError):
                IncrementalDocument(pl0_grammar(), checkpoint_every=every, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
class TestDocumentBasics:
    def test_construction_parses_and_checkpoints(self, engine):
        tokens = pl0_tokens(200, seed=1)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=32, engine=engine
        )
        assert document.recognize()
        assert len(document) == len(tokens)
        assert document.position == len(tokens)
        assert document.checkpoints()[0] == 0
        assert document.checkpoints()[1:] == [
            p for p in range(32, len(tokens) + 1, 32)
        ]
        assert document.failure_position() is None

    def test_append_extend_track_state(self, engine):
        tokens = pl0_tokens(80, seed=2)
        document = IncrementalDocument(pl0_grammar(), engine=engine)
        for token in tokens[:40]:
            document.append(token)
        document.extend(tokens[40:])
        assert document.recognize()
        assert len(document) == len(tokens)

    def test_edit_rejects_bad_ranges(self, engine):
        document = IncrementalDocument(
            pl0_grammar(), pl0_tokens(60), engine=engine
        )
        with pytest.raises(ValueError):
            document.apply_edit(-1, 0, [])
        with pytest.raises(ValueError):
            document.apply_edit(5, 4, [])
        with pytest.raises(ValueError):
            document.apply_edit(0, len(document) + 1, [])

    def test_noop_edit_is_free(self, engine):
        document = IncrementalDocument(
            pl0_grammar(), pl0_tokens(60), engine=engine
        )
        result = document.apply_edit(10, 10, [])
        assert result.refed_tokens == 0
        assert document.recognize()

    def test_value_edit_keeps_recognition_and_tree(self, engine):
        tokens = pl0_tokens(300, seed=3)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=32, engine=engine
        )
        edit = value_edit_at(tokens, len(tokens) // 2, seed=5)
        result = document.apply_edit(edit.start, edit.end, edit.tokens)
        assert document.recognize()
        assert result.rewound_to <= edit.start
        assert edit.start - result.rewound_to < 32
        scratch = DerivativeParser(pl0_grammar().to_language())
        assert document.tree() == scratch.parse(list(document.tokens))

    def test_edit_on_checkpoint_boundary_rewinds_exactly_there(self, engine):
        tokens = pl0_tokens(300, seed=4)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=32, engine=engine
        )
        boundary = document.checkpoints()[3]
        result = document.apply_edit(boundary, boundary + 1, [tokens[boundary]])
        assert result.rewound_to == boundary
        assert document.recognize()

    def test_dead_prefix_short_circuit(self, engine):
        tokens = pl0_tokens(120, seed=5)
        corrupted = list(tokens)
        corrupted[10] = Tok("@")  # kills every parse at or before 10
        document = IncrementalDocument(
            pl0_grammar(), corrupted, checkpoint_every=16, engine=engine
        )
        assert not document.recognize()
        dead_at = document.structural_failure_position
        assert dead_at is not None
        # An edit strictly after the killing token cannot revive the parse
        # and must not re-derive anything.
        result = document.apply_edit(dead_at + 5, dead_at + 6, [Tok("IDENT", "x")])
        assert result.refed_tokens == 0
        assert not document.recognize()
        # Repairing the killing token revives it.
        document.apply_edit(10, 11, [tokens[10]])
        repaired = list(document.tokens)
        assert repaired[10:12] != [Tok("@")]
        scratch = DerivativeParser(pl0_grammar().to_language())
        assert document.recognize() == scratch.recognize(repaired)

    def test_empty_document_edits(self, engine):
        document = IncrementalDocument(pl0_grammar(), engine=engine)
        assert not document.recognize()
        assert document.failure_position() == 0  # unexpected end of input
        document.apply_edit(0, 0, [Tok(".")])  # the empty program body
        assert document.recognize()
        document.apply_edit(0, 1, [])
        assert len(document) == 0
        assert not document.recognize()

    def test_restore_roundtrip(self, engine):
        tokens = pl0_tokens(200, seed=6)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=32, engine=engine
        )
        clone = IncrementalDocument.restore(
            document.parser,
            document.tokens,
            document.trail_snapshots(),
            document.state_snapshot(),
            checkpoint_every=32,
        )
        assert clone.recognize() == document.recognize()
        assert clone.checkpoints() == document.checkpoints()
        edit = value_edit_at(tokens, 150, seed=7)
        original = document.apply_edit(edit.start, edit.end, edit.tokens)
        forked = clone.apply_edit(edit.start, edit.end, edit.tokens)
        assert original.rewound_to == forked.rewound_to
        assert original.refed_tokens == forked.refed_tokens
        assert clone.recognize() and document.recognize()

    def test_restore_requires_anchored_trail(self, engine):
        document = IncrementalDocument(
            pl0_grammar(), pl0_tokens(60), engine=engine
        )
        with pytest.raises(ValueError):
            IncrementalDocument.restore(
                document.parser,
                document.tokens,
                (),
                document.state_snapshot(),
            )

    def test_metrics_counters(self, engine):
        tokens = pl0_tokens(200, seed=8)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=32, engine=engine
        )
        edit = value_edit_at(tokens, 100, seed=9)
        result = document.apply_edit(edit.start, edit.end, edit.tokens)
        assert document.metrics.edits_applied == 1
        assert document.metrics.edit_tokens_refed == result.refed_tokens
        if engine == "compiled":
            assert document.metrics.edit_splices == 1


class TestCompiledConvergence:
    def test_value_edit_converges_and_splices_the_trail(self):
        tokens = pl0_tokens(600, seed=10)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=32, engine="compiled"
        )
        checkpoints_before = document.checkpoints()
        edit = value_edit_at(tokens, 300, seed=11)
        result = document.apply_edit(edit.start, edit.end, edit.tokens)
        # Same-kind replacement: the automaton re-joins the old parse at the
        # token right after the edit, so the replay is bounded by one
        # checkpoint interval plus the edit itself.
        assert result.converged_at == edit.end
        assert result.refed_tokens <= 32 + len(edit.tokens)
        # The trail's suffix was spliced back, not re-recorded.
        assert document.checkpoints() == checkpoints_before
        assert document.recognize()

    def test_insertion_shifts_spliced_trail_positions(self):
        tokens = pl0_tokens(600, seed=12)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=32, engine="compiled"
        )
        # Delete one NUMBER token and reinsert two in its place where the
        # grammar allows a longer expression: NUMBER -> NUMBER * NUMBER.
        position = value_edit_at(tokens, 300, seed=0, kinds=("NUMBER",)).start
        replacement = [Tok("NUMBER", "3"), Tok("*"), Tok("NUMBER", "4")]
        result = document.apply_edit(position, position + 1, replacement)
        assert document.recognize()
        if result.converged_at is not None:
            delta = len(replacement) - 1
            assert any(p % 32 != 0 for p in document.checkpoints()[1:]) == (delta % 32 != 0)
        # Later edits still work on the shifted trail.
        follow_up = value_edit_at(list(document.tokens), 450, seed=13)
        document.apply_edit(follow_up.start, follow_up.end, follow_up.tokens)
        assert document.recognize()

    def test_interpreted_never_claims_convergence(self):
        tokens = pl0_tokens(300, seed=14)
        document = IncrementalDocument(
            pl0_grammar(), tokens, checkpoint_every=32, engine="interpreted"
        )
        edit = value_edit_at(tokens, 150, seed=15)
        result = document.apply_edit(edit.start, edit.end, edit.tokens)
        assert result.converged_at is None
        # The replay covers checkpoint-to-end, nothing more.
        assert result.refed_tokens == len(document) - result.rewound_to
        assert document.recognize()


class TestConstruction:
    def test_engine_validation(self):
        with pytest.raises(ValueError):
            IncrementalDocument(pl0_grammar(), engine="glr")
        with pytest.raises(ValueError):
            IncrementalDocument(pl0_grammar(), checkpoint_every=0)
        with pytest.raises(ValueError):
            IncrementalDocument()

    def test_wraps_an_existing_parser(self):
        parser = CompiledParser(pl0_grammar())
        document = IncrementalDocument(parser=parser, tokens=pl0_tokens(60))
        assert document.engine == "compiled"
        assert document.parser is parser
        assert document.recognize()

    def test_failure_position_matches_scratch_error(self):
        grammar = arithmetic_grammar()
        tokens = [Tok("NUMBER", "1"), Tok("+"), Tok("*")]
        document = IncrementalDocument(grammar, tokens, engine="interpreted")
        scratch = DerivativeParser(grammar.to_language())
        with pytest.raises(ParseError) as excinfo:
            scratch.parse(tokens)
        assert document.failure_position() == excinfo.value.position
        assert document.diagnose().position == excinfo.value.position

    @pytest.mark.parametrize(
        "tokens, expected",
        [
            ([Tok("NUMBER", "1"), Tok("+"), Tok("*"), Tok("NUMBER", "2")], 2),
            ([Tok("NUMBER", "1"), Tok("+")], 2),  # unexpected end of input
        ],
    )
    def test_compiled_failure_position_reads_the_cursor(self, tokens, expected):
        grammar = arithmetic_grammar()
        document = IncrementalDocument(grammar, tokens, engine="compiled")
        assert document.failure_position() == expected
        error = document.diagnose()
        assert (error.position, error.token) == (expected, (tokens + [None])[expected])
        with pytest.raises(ParseError) as excinfo:
            document.tree()
        assert excinfo.value.position == expected
        # The cursor already holds the exact position: no fallback parser
        # re-derives the buffer to report it.
        assert document.parser._fallback is None
