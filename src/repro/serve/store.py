"""An on-disk store of serialized compiled tables, keyed by fingerprint.

The pool's warm-start currency.  A compiled
:class:`~repro.compile.automaton.GrammarTable` is expensive once per
grammar; a *serialized* one (:mod:`repro.compile.serialize`) loads back
with **zero derivations**.  :class:`TableStore` gives that load a home: one
directory, one ``<fingerprint>.table.json`` document per grammar, written
atomically so a reader never sees a half-written table.

The sharded pool (:mod:`repro.serve.pool`) uses it in both directions: the
dispatcher asks the worker that first compiled (and warmed) a table to
persist it here, and every later worker spawned for that grammar's shard —
including crash respawns — preloads it through
:meth:`repro.serve.cache.TableCache.warm_start` instead of deriving
anything.  The store is deliberately dumb: no locking beyond the atomic
rename (last writer wins — both writers hold equivalent tables), no
eviction, no metadata.  It is equally usable standalone, as a build
artifact cache shipped next to an application.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from ..compile.automaton import GrammarTable
from ..compile.serialize import dump_table, restore_table
from ..core.metrics import Metrics

__all__ = ["TableStore"]

#: Filename suffix of every stored document (fingerprints are hex, so the
#: names never need escaping).
_SUFFIX = ".table.json"


class TableStore:
    """A directory of serialized compiled tables, one per grammar fingerprint.

    Parameters
    ----------
    root:
        Directory to keep the documents in (created if missing).

    Writes are atomic (temp file + ``os.replace`` in the same directory),
    so concurrent readers — pool workers warm-starting while the dispatcher
    persists — always see either the complete previous document or the
    complete new one.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------ paths
    def path_for(self, fingerprint: str) -> str:
        """The document path for ``fingerprint`` (whether or not it exists)."""
        return os.path.join(self.root, fingerprint + _SUFFIX)

    def has(self, fingerprint: str) -> bool:
        """True when a document for ``fingerprint`` is on disk."""
        return os.path.exists(self.path_for(fingerprint))

    def fingerprints(self) -> List[str]:
        """Every stored fingerprint, sorted (the store's whole inventory)."""
        out = []
        for name in os.listdir(self.root):
            if name.endswith(_SUFFIX):
                out.append(name[: -len(_SUFFIX)])
        return sorted(out)

    def paths(self) -> List[str]:
        """Every stored document path, in :meth:`fingerprints` order."""
        return [self.path_for(fingerprint) for fingerprint in self.fingerprints()]

    # ------------------------------------------------------------------- save
    def persist(self, table: GrammarTable, overwrite: bool = True) -> str:
        """Write ``table``'s document atomically; returns the path.

        The document is named by ``table.fingerprint``, the same key a
        caller computes over its grammar without compiling it.
        ``overwrite=False`` keeps an existing document (first writer wins —
        the usual pool case, where every candidate writer holds an
        equivalent warm table and rewriting is wasted IO).
        """
        return self.persist_document(dump_table(table), overwrite=overwrite)

    def persist_document(self, document: Dict[str, Any], overwrite: bool = True) -> str:
        """Write an already-dumped table document atomically (see :meth:`persist`).

        The file is named by the document's ``"fingerprint"``.
        """
        fingerprint = document["fingerprint"]
        path = self.path_for(fingerprint)
        if not overwrite and os.path.exists(path):
            return path
        handle, temp_path = tempfile.mkstemp(
            prefix=fingerprint[:12] + ".", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                json.dump(document, stream, separators=(",", ":"))
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        return path

    # ------------------------------------------------------------------- load
    def load(
        self,
        fingerprint: str,
        grammar: Any,
        metrics: Optional[Metrics] = None,
    ) -> GrammarTable:
        """Restore the stored table for ``fingerprint`` over ``grammar``.

        Raises ``FileNotFoundError`` when the fingerprint is not stored;
        ``metrics`` is forwarded to :func:`repro.compile.restore_table`,
        which refuses a grammar whose structure does not match the document.
        """
        with open(self.path_for(fingerprint), "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return restore_table(data, grammar, metrics=metrics)

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __repr__(self) -> str:
        return "TableStore({!r}, {} tables)".format(self.root, len(self))
