"""Content-addressed on-disk cache for campaign results.

Key = SHA-256 over a canonical JSON rendering of the work unit
(:meth:`WorkUnit.fingerprint`: kind + every ``ScenarioConfig`` field,
seed and duration included) plus :data:`CACHE_SCHEMA_VERSION`. Any
change to the scenario vocabulary or the result layout bumps the
version and naturally invalidates every older entry.

Payloads are pickles under ``.repro-cache/<k[:2]>/<k>.pkl``; writes go
through a temp file + ``os.replace`` so a crashed run never leaves a
truncated entry behind. A :class:`~repro.core.session.SessionResult`
(alone or inside a :class:`~repro.core.fleet.FleetResult`) pickles
column-wise: each field of its per-packet, playback, handover,
capacity, RSSI and CC logs is one typed buffer instead of one pickled
object per record. On load the packet log keeps its buffers and
builds no record (:class:`~repro.core.packet_log.PacketLog`); the
other logs are rebuilt into records. The cache adds no format of its
own; the encoding lives at the ``SessionResult`` boundary, so the
worker pool's result hand-back uses it too.

An entry that fails to load — truncated, corrupt, or written for
record classes whose fields have since changed — is evicted with a
``RuntimeWarning`` naming it and the error, and reads as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover — avoid a runtime import cycle
    from repro.runner.work import WorkUnit

#: Bump when ScenarioConfig fields or result dataclasses change shape.
#: v2: fleet ring members translate trajectories post-interpolation
#: (TranslatedTrajectory), which moves N>=2 fleet results by an ulp.
CACHE_SCHEMA_VERSION = 2

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Sentinel distinguishing "no entry" from a cached ``None``.
MISS = object()


class ResultCache:
    """Pickle store addressed by work-unit content hash."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def key(self, unit: WorkUnit) -> str:
        """Content hash of one work unit (hex, stable across runs)."""
        material = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "unit": unit.fingerprint()},
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, unit: WorkUnit) -> Any:
        """Cached result for ``unit``, or :data:`MISS`."""
        path = self._path(self.key(unit))
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return MISS
        except Exception as exc:
            # Truncated/corrupt entry, or one whose record fields no
            # longer match the code: drop it, say so, re-execute.
            warnings.warn(
                f"result cache: evicting unreadable entry {path} "
                f"({type(exc).__name__}: {exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return MISS

    def put(self, unit: WorkUnit, result: Any) -> None:
        """Store ``result`` for ``unit`` (atomic replace)."""
        path = self._path(self.key(unit))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict[str, int]:
        """Entry count and total payload bytes on disk."""
        entries = 0
        size = 0
        if self.root.exists():
            for path in self.root.rglob("*.pkl"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        return {"entries": entries, "bytes": size}
