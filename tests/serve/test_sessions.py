"""Streaming sessions: lifecycle, edits, checkpoints, idle eviction, races."""

import threading
import time

import pytest

from repro.core import DerivativeParser, ParseError
from repro.grammars import arithmetic_grammar, pl0_grammar
from repro.lexer.tokens import Tok
from repro.serve import ParseService, SessionError
from repro.serve.sessions import SessionManager
from repro.workloads import pl0_tokens, value_edit_at


@pytest.fixture
def service():
    with ParseService(workers=2) as svc:
        yield svc


class TestSessionLifecycle:
    def test_feed_accept_tree_roundtrip(self, service):
        tokens = pl0_tokens(150, seed=7)
        session = service.open_session(pl0_grammar())
        for tok in tokens[:75]:
            session.feed(tok)
        assert not session.failed
        session.feed_all(tokens[75:])
        assert session.accepts()
        assert session.position == len(tokens)
        assert session.tree() is not None

    def test_feed_after_failure_is_noop_feed_after_close_raises(self, service):
        session = service.open_session(pl0_grammar())
        session.feed_all(pl0_tokens(60))  # complete program; '.' already seen
        session.feed(pl0_tokens(60)[0])  # one token past the end kills it
        failed_at = session.failure_position
        position = session.position
        session.feed(pl0_tokens(60)[1])  # corpse: nothing changes
        assert session.failure_position == failed_at
        assert session.position == position
        session.close()
        assert session.closed and session.end_reason == "closed"
        with pytest.raises(SessionError):
            session.feed(pl0_tokens(60)[0])
        with pytest.raises(SessionError):
            session.accepts()  # liveness probes must not answer from a corpse

    def test_rejected_prefix_tree_raises_parse_error(self, service):
        tokens = pl0_tokens(60)
        session = service.open_session(pl0_grammar())
        session.feed_all(tokens[: len(tokens) // 2])
        if not session.accepts():
            with pytest.raises(ParseError):
                session.tree()


class TestCheckpoints:
    def test_checkpoint_restore_forks_the_stream(self, service):
        tokens = pl0_tokens(200, seed=3)
        session = service.open_session(pl0_grammar())
        session.feed_all(tokens[:100])
        checkpoint = session.checkpoint()
        # The original keeps going and finishes.
        session.feed_all(tokens[100:])
        assert session.accepts()
        # The fork resumes at 100 and finishes independently.
        fork = service.restore_session(checkpoint)
        assert fork.position == 100
        fork.feed_all(tokens[100:])
        assert fork.accepts()
        assert fork.tree() == session.tree()
        assert service.metrics.get("checkpoints_taken") == 1

    def test_restored_session_has_own_lifecycle(self, service):
        session = service.open_session(pl0_grammar())
        session.feed_all(pl0_tokens(80)[:10])
        fork = service.restore_session(session.checkpoint())
        session.close()
        # Closing the original does not close the fork.
        fork.feed(pl0_tokens(80)[10])
        assert not fork.closed


class TestIdleEviction:
    def test_idle_sessions_are_evicted_and_marked(self):
        clock = [0.0]
        manager = SessionManager(idle_ttl=10.0, clock=lambda: clock[0])
        with ParseService(workers=1) as service:
            entry = service.table_for(pl0_grammar())
            idle = manager.open(entry)
            clock[0] = 5.0
            fresh = manager.open(entry)
            clock[0] = 14.0
            assert manager.sweep() == 1  # idle (last used 0.0) is gone
            assert idle.closed and idle.end_reason == "evicted"
            assert not fresh.closed
            with pytest.raises(SessionError):
                idle.feed(pl0_tokens(60)[0])
            with pytest.raises(SessionError):
                manager.get(idle.session_id)
            assert manager.metrics.get("sessions_evicted") == 1

    def test_activity_defers_eviction(self):
        clock = [0.0]
        manager = SessionManager(idle_ttl=10.0, clock=lambda: clock[0])
        with ParseService(workers=1) as service:
            entry = service.table_for(pl0_grammar())
            session = manager.open(entry)
            tokens = pl0_tokens(60)
            for step in range(3):
                clock[0] += 8.0
                session.feed(tokens[step])  # touches last_used
            assert manager.sweep() == 0
            assert not session.closed


class TestSessionEdits:
    def test_apply_edit_reparses_incrementally(self, service):
        tokens = pl0_tokens(400, seed=11)
        session = service.open_session(pl0_grammar(), checkpoint_every=32)
        session.feed_all(tokens)
        assert session.accepts()
        edit = value_edit_at(tokens, 200, seed=1)
        result = session.apply_edit(edit.start, edit.end, edit.tokens)
        assert result.refed_tokens < len(tokens) // 2
        assert session.accepts()
        # Parity: the session's tree equals a from-scratch parse of the
        # edited buffer.
        buffer = list(session.tokens)
        scratch = DerivativeParser(pl0_grammar().to_language())
        assert session.tree() == scratch.parse(buffer)
        assert service.metrics.get("edits_applied") == 1
        assert service.metrics.get("edit_tokens_refed") == result.refed_tokens

    def test_edit_can_break_and_repair_the_stream(self, service):
        tokens = pl0_tokens(200, seed=12)
        session = service.open_session(pl0_grammar(), checkpoint_every=16)
        session.feed_all(tokens)
        session.apply_edit(50, 51, [Tok("@")])
        assert not session.accepts()
        session.apply_edit(50, 51, [tokens[50]])
        assert session.accepts()

    def test_restored_session_keeps_its_trail_for_cheap_edits(self, service):
        tokens = pl0_tokens(400, seed=13)
        session = service.open_session(pl0_grammar(), checkpoint_every=32)
        session.feed_all(tokens)
        fork = service.restore_session(session.checkpoint())
        edit = value_edit_at(tokens, 250, seed=2)
        original = session.apply_edit(edit.start, edit.end, edit.tokens)
        forked = fork.apply_edit(edit.start, edit.end, edit.tokens)
        # The trail traveled with the checkpoint: the fork rewinds to the
        # same checkpoint and re-derives the same token count.
        assert forked.rewound_to == original.rewound_to
        assert forked.refed_tokens == original.refed_tokens
        assert fork.accepts() and session.accepts()


class TestRestore:
    def test_restore_is_metered_and_restored_session_is_observable(self):
        clock = [0.0]
        manager = SessionManager(idle_ttl=10.0, clock=lambda: clock[0])
        with ParseService(workers=1) as service:
            entry = service.table_for(pl0_grammar())
            session = manager.open(entry)
            session.feed_all(pl0_tokens(80)[:20])
            restored = manager.restore(session.checkpoint())
            assert manager.metrics.get("sessions_restored") == 1
            # Observable like any other session...
            assert manager.get(restored.session_id) is restored
            assert restored in manager.live_sessions()
            assert restored.position == 20
            # ...and evictable like any other session.
            clock[0] = 20.0
            session._touch()  # keep the original alive
            assert manager.sweep() == 1
            assert restored.closed and restored.end_reason == "evicted"
            assert not session.closed

    def test_failed_restore_does_not_leak_a_session(self):
        # A checkpoint whose trail is malformed must fail cleanly: the
        # freshly opened session is closed and deregistered, not leaked.
        from repro.serve.sessions import SessionCheckpoint

        manager = SessionManager()
        with ParseService(workers=1) as service:
            entry = service.table_for(pl0_grammar())
            tokens = pl0_tokens(80, seed=18)
            session = manager.open(entry)
            session.feed_all(tokens)
            modern = session.checkpoint()
            # Trail missing its position-0 anchor: invalid.
            bad = SessionCheckpoint(
                modern.entry,
                modern.state,
                modern.position,
                modern.failure_position,
                modern.tokens,
                trail=modern.trail[1:],
                checkpoint_every=modern.checkpoint_every,
            )
            live_before = len(manager)
            with pytest.raises(ValueError):
                manager.restore(bad)
            assert len(manager) == live_before
            assert manager.metrics.get("sessions_restored") == 0


class TestManagerScopedIds:
    def test_two_managers_never_mint_colliding_ids(self):
        with ParseService(workers=1) as service:
            entry = service.table_for(pl0_grammar())
            first = SessionManager()
            second = SessionManager()
            sessions_a = [first.open(entry) for _ in range(3)]
            sessions_b = [second.open(entry) for _ in range(3)]
            ids_a = {session.session_id for session in sessions_a}
            ids_b = {session.session_id for session in sessions_b}
            assert not ids_a & ids_b
            assert all(session.session_id.startswith(first.tag + "-") for session in sessions_a)

    def test_cross_manager_get_and_restore_do_not_resolve(self):
        with ParseService(workers=1) as service:
            entry = service.table_for(pl0_grammar())
            first = SessionManager()
            second = SessionManager()
            session = first.open(entry)
            second.open(entry)  # same per-manager counter value (1) as `session`
            # Before ids were manager-tagged, both managers minted "s1" from
            # one shared class counter — or, worse, interleaved counters let
            # an id from one manager silently resolve a *different* session
            # in the other.  Now a foreign id never resolves.
            with pytest.raises(SessionError):
                second.get(session.session_id)
            # A checkpoint restored against the other manager opens a
            # session registered (and id-tagged) there, not in the original.
            checkpoint = session.checkpoint()
            foreign = second.restore(checkpoint)
            assert foreign.session_id.startswith(second.tag + "-")
            with pytest.raises(SessionError):
                first.get(foreign.session_id)


class TestSweepRace:
    def test_sweep_revalidates_under_the_session_lock(self):
        # Regression for the select-then-evict TOCTOU: a session that looks
        # idle under the manager lock but is touched (or mid-operation,
        # holding its own lock) before the eviction decision must survive
        # the sweep.  The test freezes the race window deterministically:
        # the session's lock is held — as a feed would hold it — while a
        # sweeper thread runs; the touch happens inside the lock, and the
        # sweeper's re-validation must observe it.
        clock = [0.0]
        manager = SessionManager(idle_ttl=10.0, clock=lambda: clock[0])
        with ParseService(workers=1) as service:
            entry = service.table_for(pl0_grammar())
            session = manager.open(entry)  # last_used = 0.0
            clock[0] = 30.0  # stale last_used: a sweep candidate

            sweep_started = threading.Event()

            def observed_clock():
                sweep_started.set()
                return clock[0]

            manager.clock = observed_clock
            result = []
            with session._lock:  # an in-flight feed/tree holds this
                sweeper = threading.Thread(
                    target=lambda: result.append(manager.sweep())
                )
                sweeper.start()
                assert sweep_started.wait(5)
                # Give the sweeper time to pass candidate selection and
                # block on the session lock we hold.
                time.sleep(0.1)
                session.last_used = clock[0]  # the in-flight op touches
            sweeper.join(5)
            assert result == [0]
            assert not session.closed
            assert manager.get(session.session_id) is session
            assert manager.metrics.get("sessions_evicted") == 0

    def test_sweep_still_evicts_genuinely_idle_sessions_under_contention(self):
        # The re-validation must not make the sweep toothless: concurrent
        # sweeps racing each other still evict an idle session exactly once.
        clock = [0.0]
        manager = SessionManager(idle_ttl=10.0, clock=lambda: clock[0])
        with ParseService(workers=1) as service:
            entry = service.table_for(pl0_grammar())
            idle = manager.open(entry)
            clock[0] = 30.0
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(manager.sweep()))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5)
            assert sum(results) == 1
            assert idle.closed and idle.end_reason == "evicted"
            assert manager.metrics.get("sessions_evicted") == 1


class TestCacheEvictionSafety:
    def test_table_cache_eviction_never_corrupts_inflight_session(self):
        # Capacity-1 cache: compiling a second grammar evicts the first
        # mid-stream.  The session holds its entry strongly, so it finishes
        # on the (now cache-orphaned) table with correct results.
        with ParseService(workers=2, table_cache_size=1) as service:
            tokens = pl0_tokens(200, seed=5)
            session = service.open_session(pl0_grammar())
            session.feed_all(tokens[:100])
            service.table_for(arithmetic_grammar())  # evicts the pl0 table
            assert len(service.tables) == 1
            session.feed_all(tokens[100:])
            assert session.accepts()
            assert session.tree() is not None
            # A fresh pl0 request recompiles independently and still agrees.
            assert service.recognize_many(pl0_grammar(), [tokens]) == [True]
