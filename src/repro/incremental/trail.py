"""Checkpoint trails: ordered snapshots of a parse at increasing positions.

Both engine states snapshot in O(1) — an interpreted
:class:`~repro.core.parse.ParserSnapshot` pins one node of a persistent
derived-language graph, a compiled
:class:`~repro.compile.executor.CompiledSnapshot` pins one interned
automaton state (whose identity is what edit-aware reparsing compares
during shadow-cursor re-convergence) — so
keeping a snapshot every *k* tokens costs a handful of references per
kilotoken, not a copy of anything.  A
:class:`CheckpointTrail` is that bookkeeping: the sorted list of
snapshots plus the two queries edit-aware reparsing needs, "rightmost
checkpoint at or before this position" (where to rewind to) and
"truncate beyond this position" (checkpoints past an edit describe a
prefix that no longer exists).

The trail is engine-agnostic: it only reads each snapshot's ``position``
attribute, which both snapshot types expose.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, List, Tuple

__all__ = ["CheckpointTrail"]


class CheckpointTrail:
    """Engine snapshots at strictly increasing stream positions."""

    __slots__ = ("_snapshots",)

    def __init__(self, snapshots: Iterable[Any] = ()) -> None:
        self._snapshots: List[Any] = list(snapshots)
        positions = [snap.position for snap in self._snapshots]
        if positions != sorted(set(positions)):
            raise ValueError(
                "trail positions must be strictly increasing, got {}".format(positions)
            )

    # ------------------------------------------------------------- recording
    def record(self, snapshot: Any) -> None:
        """Append a snapshot; its position must exceed every recorded one."""
        if self._snapshots and snapshot.position <= self._snapshots[-1].position:
            raise ValueError(
                "snapshot at position {} does not extend the trail (last is {})".format(
                    snapshot.position, self._snapshots[-1].position
                )
            )
        self._snapshots.append(snapshot)

    def truncate_beyond(self, position: int) -> int:
        """Drop snapshots with ``position > position``; return how many."""
        keep = bisect_right(self.positions(), position)
        dropped = len(self._snapshots) - keep
        del self._snapshots[keep:]
        return dropped

    # --------------------------------------------------------------- queries
    def rewind_point(self, position: int) -> Any:
        """The rightmost snapshot at or before ``position``.

        Raises :class:`LookupError` when the trail has no snapshot that
        early (a trail anchored at position 0 always has one).
        """
        index = bisect_right(self.positions(), position) - 1
        if index < 0:
            raise LookupError(
                "no checkpoint at or before position {}".format(position)
            )
        return self._snapshots[index]

    def at_or_after(self, position: int) -> List[Any]:
        """Every snapshot with ``position >= position``, in order."""
        index = bisect_right(self.positions(), position - 1)
        return self._snapshots[index:]

    def positions(self) -> List[int]:
        """The recorded positions, ascending."""
        return [snap.position for snap in self._snapshots]

    def snapshots(self) -> Tuple[Any, ...]:
        """An immutable view of the recorded snapshots."""
        return tuple(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __repr__(self) -> str:
        return "CheckpointTrail({} checkpoints, positions={})".format(
            len(self._snapshots), self.positions()[:8]
        )
