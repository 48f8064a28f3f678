"""Content-addressed on-disk store for built measured traces.

Trace construction is deterministic, so a measured trace's *recipe* —
``(benchmark, memory_refs, seed)`` plus the source fingerprint of the
installed package — addresses its content.  The store keeps each
recipe's measured trace in one compressed ``.npz`` under the recipe
digest, letting N pool workers (and N successive runner invocations)
generate each trace once per machine instead of once per process.  The
warm-up trace is not stored: it is vectorized and rebuilds in 0.2-0.5
ms per benchmark, a fraction of what compressing it costs.

Location: the store lives beside the results, in ``<result cache
dir>/traces``, and a run with no result cache (``--no-cache``, or a
library ``Runner`` without ``cache_dir``) has no store.
``REPRO_TRACE_STORE`` overrides that: it names the directory, and
``0`` / ``off`` / ``false`` / empty disables the store.  Writes are
atomic (temp file + ``os.replace``)
and every filesystem failure degrades silently to rebuilding — a
broken or read-only cache can slow things down but never break a run.
The source fingerprint in the key means any edit to the simulator
invalidates the whole store automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Optional

from repro.cpu.trace import Trace

__all__ = ["TraceStore", "trace_store"]

#: bump when the on-disk layout changes (entries self-invalidate).
#: 2: each trace carries its ``shared_prefix``.
#: 3: an entry holds the measured trace alone, not the warm-up trace.
STORE_FORMAT_VERSION = 3

_DISABLED_VALUES = ("", "0", "off", "false", "no")


class TraceStore:
    """Directory of ``<recipe-digest>.npz`` measured traces."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    @staticmethod
    def recipe_key(benchmark: str, memory_refs: int, seed: int) -> str:
        """Digest addressing the measured trace of one recipe."""
        # Imported lazily: repro.runner.runner imports the worker module
        # that uses this store, so a module-level import would cycle.
        from repro.runner.runner import source_fingerprint

        payload = json.dumps(
            {
                "version": STORE_FORMAT_VERSION,
                "benchmark": benchmark,
                "memory_refs": memory_refs,
                "seed": seed,
                "source": source_fingerprint(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(self, key: str) -> Optional[Trace]:
        """The trace stored under ``key``, or None on miss/corruption."""
        try:
            return Trace.load(self._path(key))
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
            # Missing, unreadable, truncated, stale-format or no archive
            # at all (a plain .npy): a miss, overwritten on save.
            return None

    def save(self, key: str, trace: Trace) -> bool:
        """Persist ``trace``; returns False on any filesystem error."""
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                trace.save(fh)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True


def trace_store(cache_dir=None) -> Optional[TraceStore]:
    """The trace store of a run whose result cache is ``cache_dir``:
    ``REPRO_TRACE_STORE`` when set (None when it disables the store),
    else ``<cache_dir>/traces``, else None."""
    value = os.environ.get("REPRO_TRACE_STORE")
    if value is not None:
        if value.strip().lower() in _DISABLED_VALUES:
            return None
        return TraceStore(Path(value))
    if not cache_dir:
        return None
    return TraceStore(Path(cache_dir) / "traces")
