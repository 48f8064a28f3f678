"""Content-addressed on-disk store for built traces.

Trace construction is deterministic, so a trace's *recipe* —
``(benchmark, memory_refs, seed, l2_bytes)`` plus the source
fingerprint of the installed package — addresses its content.  The
store keeps each recipe's warm-up and measured traces in one
compressed ``.npz`` under the recipe digest, letting N pool workers
(and N successive runner invocations) generate each trace once per
machine instead of once per process.

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
from typing import Optional, Tuple

import numpy as np

from repro.cpu.trace import Trace

__all__ = ["TraceStore", "trace_store"]

#: bump when the on-disk layout changes (entries self-invalidate).
#: 2: each trace carries its ``shared_prefix``.
STORE_FORMAT_VERSION = 2

_DISABLED_VALUES = ("", "0", "off", "false", "no")

_COLUMNS = ("kinds", "gaps", "addrs", "deps", "pcs")


class TraceStore:
    """Directory of ``<recipe-digest>.npz`` trace pairs."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    @staticmethod
    def recipe_key(benchmark: str, memory_refs: int, seed: int, l2_bytes: int) -> str:
        """Digest addressing the (warm, main) trace pair of one recipe."""
        # Imported lazily: repro.runner.runner imports the worker module
        # that uses this store, so a module-level import would cycle.
        from repro.runner.runner import source_fingerprint

        payload = json.dumps(
            {
                "version": STORE_FORMAT_VERSION,
                "benchmark": benchmark,
                "memory_refs": memory_refs,
                "seed": seed,
                "l2_bytes": l2_bytes,
                "source": source_fingerprint(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(self, key: str) -> Optional[Tuple[Trace, Trace]]:
        """(warm, main) for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            # np.load keeps a file it opened itself open when the zip
            # parse raises; a handle passed in is closed here either way.
            with open(path, "rb") as handle:
                data = np.load(handle, allow_pickle=False)
                if not isinstance(data, np.lib.npyio.NpzFile):
                    # A plain .npy array (or anything else np.load
                    # reads that is no archive) holds no trace pair.
                    return None
                with data:
                    warm = self._unpack(data, "warm")
                    main = self._unpack(data, "main")
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # Missing, unreadable, truncated, or stale-format entry:
            # treat as a miss; a corrupt file is overwritten on save.
            return None
        return warm, main

    def save(self, key: str, warm: Trace, main: Trace) -> bool:
        """Persist a trace pair; returns False on any filesystem error."""
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        arrays = {}
        for prefix, trace in (("warm", warm), ("main", main)):
            arrays[f"{prefix}_name"] = np.array(trace.name)
            arrays[f"{prefix}_description"] = np.array(trace.description)
            arrays[f"{prefix}_shared_prefix"] = np.array(trace.shared_prefix)
            for column in _COLUMNS:
                arrays[f"{prefix}_{column}"] = getattr(trace, column)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True

    @staticmethod
    def _unpack(data, prefix: str) -> Trace:
        return Trace(
            name=str(data[f"{prefix}_name"]),
            description=str(data[f"{prefix}_description"]),
            shared_prefix=int(data[f"{prefix}_shared_prefix"]),
            **{column: data[f"{prefix}_{column}"] for column in _COLUMNS},
        )


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
