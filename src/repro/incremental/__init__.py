"""repro.incremental — edit-aware reparsing on checkpoint trails.

Snapshotting a prefix of a derivative parse is a reference copy (the
structures are persistent), so keeping a checkpoint every *k* tokens is
nearly free — and an edit then costs a rewind to the nearest checkpoint
plus a replay of the changed region, instead of a full reparse.  On the
compiled engine the replay also *re-converges*: interned automaton states
are value-insensitive, so a shadow cursor detects the position where the
new parse re-joins the old one and splices the old trail back in,
bounding an edit's cost by ``checkpoint interval + edit size``.

The document records the trail itself: after each token it feeds it
snapshots the engine cursor at every *k*-th position the parse reaches
alive.  The engines' ``start()``/``resume()`` cursors know nothing of
checkpoints; they only answer ``snapshot()``.

Quickstart::

    from repro.incremental import IncrementalDocument
    from repro.grammars import pl0_grammar
    from repro.workloads import pl0_tokens

    tokens = pl0_tokens(5_000)
    document = IncrementalDocument(
        pl0_grammar(), tokens, checkpoint_every=64, engine="compiled"
    )
    document.recognize()                     # True
    result = document.apply_edit(2_500, 2_501, [tokens[2_500]._replace(value="7")])
    result.refed_tokens                      # ~ checkpoint interval, not 5 000
    document.recognize()                     # parity with a from-scratch parse

The serve layer wraps the same machinery in sessions:
``ParseSession.apply_edit`` and the :class:`~repro.serve.ParseService`
``edit`` front door (see :mod:`repro.serve.sessions`).
"""

from .document import DEFAULT_CHECKPOINT_EVERY, EditResult, IncrementalDocument
from .trail import CheckpointTrail

__all__ = [
    "IncrementalDocument",
    "EditResult",
    "CheckpointTrail",
    "DEFAULT_CHECKPOINT_EVERY",
]
