"""Where resolved simulation points live, for both execution engines.

:class:`ResultCache` is the deterministic on-disk layer: one JSON file
per cached point, named by the point's content-hash key (see
:meth:`repro.runner.runner.SimPoint.cache_key`) and sharded into 256
two-hex-digit subdirectories so even large sweeps keep directory
listings cheap.  Writes go through a temporary file in the same
directory followed by an atomic ``os.replace``, so concurrent writers
sharing a cache directory can never observe a torn entry.  Reads never
raise: a corrupt or unreadable entry is a miss and is overwritten on
the next store.  Writes *do* propagate :class:`OSError`.

:class:`ResultStore` is the one store both the
:class:`~repro.runner.runner.Runner` and the simulation service resolve
points through: an in-memory memo over an optional
:class:`ResultCache`, the provenance payload written next to each
point's statistics, memo/disk/miss counters, and the policy for a
failing write (disk full, read-only directory) — degrade to memo-only
with a single warning instead of aborting.  Because both engines write
the same entries under the same keys, either one reads a directory the
other wrote.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from repro import __version__
from repro.obs.log import get_logger
from repro.runner import faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.runner import SimPoint

__all__ = ["RESULT_VERSION", "ResultCache", "ResultStore", "default_cache_dir"]

#: bump to invalidate every previously cached result (e.g. after a
#: change to the simulator's timing behaviour).
RESULT_VERSION = 1

_log = get_logger("repro.runner")


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``: where both
    CLIs keep the result cache, and the service its journal."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro"
    )


class ResultCache:
    """Content-addressed store of JSON payloads under one root directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        """Payload stored under ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def put(self, key: str, payload: Dict) -> None:
        """Atomically store ``payload`` under ``key``.

        Raises :class:`OSError` when the entry cannot be written (full
        disk, read-only directory, …); a failed write never leaves a
        partial entry or a stray temporary file behind.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _readable(self, path: Path) -> bool:
        try:
            with path.open("r", encoding="utf-8") as handle:
                json.load(handle)
        except (OSError, ValueError):
            return False
        return True

    def __contains__(self, key: str) -> bool:
        """Membership means "readable payload", exactly as :meth:`get`
        defines a hit — a torn or corrupt file is not *in* the cache,
        it is a miss waiting to be overwritten."""
        return self._readable(self._path(key))

    def __len__(self) -> int:
        """Number of entries :meth:`get` would actually serve."""
        return sum(1 for path in self.root.glob("??/*.json") if self._readable(path))

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class ResultStore:
    """Memo plus optional on-disk cache, with hit/miss accounting."""

    def __init__(self, cache_dir=None) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: cache key -> statistics of every point this process resolved.
        self.memo: Dict[str, Dict[str, object]] = {}
        self.memo_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.cache_disabled_reason: Optional[str] = None

    def __contains__(self, key: str) -> bool:
        """Memo membership; touches neither the disk nor the counters."""
        return key in self.memo

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Statistics stored under ``key``, or None.  Each lookup counts
        once: as a hit at the cheapest layer that served it, or a miss."""
        stats = self.memo.get(key)
        if stats is not None:
            self.memo_hits += 1
            return stats
        if self.cache is not None:
            entry = self.cache.get(key)
            if entry is not None and "stats" in entry:
                self.memo[key] = entry["stats"]
                self.disk_hits += 1
                return entry["stats"]
        self.misses += 1
        return None

    def put(
        self,
        point: "SimPoint",
        key: str,
        stats: Dict[str, object],
        wall: float,
        attempt: int = 0,
    ) -> Optional[OSError]:
        """Record a freshly simulated point in every layer.

        A failing disk write — or a ``cache-io`` fault planned for
        ``(label, attempt)`` — switches the disk layer off with one
        warning; the error is returned for the caller's failure log.
        """
        self.memo[key] = stats
        if self.cache is None:
            return None
        label = point.label()
        try:
            if faults.cache_fault(label, attempt) is not None:
                raise OSError(f"injected cache-io fault for {label!r}")
            self.cache.put(
                key,
                {
                    "key": key,
                    "benchmark": point.benchmark,
                    "config_digest": point.config.digest(),
                    "memory_refs": point.memory_refs,
                    "seed": point.seed,
                    "result_version": RESULT_VERSION,
                    "repro_version": __version__,
                    "wall_seconds": wall,
                    "stats": stats,
                },
            )
        except OSError as error:
            self.cache = None
            self.cache_disabled_reason = str(error)
            _log.warning(
                f"[runner] result cache disabled after write error: {error} "
                "(simulation continues without persistence)"
            )
            return error
        return None

    def summary(self) -> Dict[str, object]:
        return {
            "memo_entries": len(self.memo),
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "cache_dir": str(self.cache.root) if self.cache else None,
            "cache_disabled": self.cache_disabled_reason,
        }
