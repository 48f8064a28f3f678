"""Precompiled trace columns shared across sweep points.

A :class:`CompiledTrace` wraps an immutable :class:`~repro.cpu.trace.Trace`
and memoizes every derived view the simulation kernels need:

* plain Python-list copies of the numpy columns (``ndarray.__getitem__``
  in a tight loop is several times slower than list iteration, so both
  the reference core and the fast kernel walk lists);
* per-cache-geometry block/set-index columns (``addr & block_mask`` and
  the set index precomputed vectorized instead of per record per run);
* per-DRAM-geometry coordinate maps (``l2_block -> (bank, row)``, keyed
  by the backend's effective geometry) built with one vectorized
  :meth:`translate_arrays` call over the unique blocks of the trace.

All of it is keyed by a sha256 **content digest** of the raw columns, so
two ``Trace`` objects with equal content (e.g. one freshly built and one
loaded from the on-disk store) share one compilation per process.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import AccessKind
from repro.core.config import CacheConfig, DRAMConfig
from repro.cpu.trace import Trace
from repro.dram.mapping import make_mapping

__all__ = ["CompiledTrace", "compile_trace", "trace_digest"]


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace: sha256 over its columns and name."""
    h = hashlib.sha256()
    h.update(trace.name.encode("utf-8"))
    h.update(b"\0")
    for column in (trace.kinds, trace.gaps, trace.addrs, trace.deps, trace.pcs):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def _cache_key(config: CacheConfig) -> Tuple[int, int, int]:
    return (config.block_bytes, config.num_sets, config.block_offset_bits)


def _dram_key(config: DRAMConfig, block_bytes: int) -> Tuple:
    return (
        config.mapping,
        config.channels,
        config.devices_per_channel,
        config.banks_per_device,
        config.rows_per_bank,
        config.row_bytes,
        config.dualoct_bytes,
        block_bytes,
    )


class CompiledTrace:
    """Derived columns for one trace, lazily built and memoized.

    Instances are shared process-wide (one per content digest), so every
    cached view must be treated as immutable by consumers — with the one
    deliberate exception of :meth:`coord_map`, whose dict the fast kernel
    extends in place with prefetch-generated blocks (the map is a pure
    function of the DRAM geometry, so concurrent extension is benign).
    """

    def __init__(self, trace: Trace, digest: Optional[str] = None) -> None:
        self.trace = trace
        self.digest = digest if digest is not None else trace_digest(trace)
        self._lock = threading.Lock()
        self._base_columns: Optional[Tuple[list, ...]] = None
        self._l1_columns: Dict[Tuple, Tuple[list, list]] = {}
        self._coord_maps: Dict[Tuple, dict] = {}

    def __len__(self) -> int:
        return len(self.trace)

    def base_columns(self) -> Tuple[list, list, list, list, list]:
        """(kinds, gaps, addrs, deps, pcs) as plain lists."""
        columns = self._base_columns
        if columns is None:
            trace = self.trace
            columns = (
                trace.kinds.tolist(),
                trace.gaps.tolist(),
                trace.addrs.tolist(),
                trace.deps.tolist(),
                trace.pcs.tolist(),
            )
            self._base_columns = columns
        return columns

    def l1_columns(self, l1i: CacheConfig, l1d: CacheConfig) -> Tuple[list, list]:
        """(l1_block, l1_set) lists for the given L1 geometry pair.

        Instruction fetches take the L1I geometry, every other record the
        L1D geometry — mirroring which cache each record touches first.
        """
        key = (_cache_key(l1i), _cache_key(l1d))
        cached = self._l1_columns.get(key)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._l1_columns.get(key)
            if cached is not None:
                return cached
            trace = self.trace
            addrs = trace.addrs
            is_ifetch = trace.kinds == np.uint8(AccessKind.IFETCH)
            blocks = np.where(
                is_ifetch,
                addrs & ~np.int64(l1i.block_bytes - 1),
                addrs & ~np.int64(l1d.block_bytes - 1),
            )
            sets = np.where(
                is_ifetch,
                (blocks >> l1i.block_offset_bits) & np.int64(l1i.num_sets - 1),
                (blocks >> l1d.block_offset_bits) & np.int64(l1d.num_sets - 1),
            )
            cached = (blocks.tolist(), sets.tolist())
            self._l1_columns[key] = cached
        return cached

    def coord_map(self, dram: DRAMConfig, l2_block_bytes: int) -> dict:
        """``l2_block -> (bank, row)`` for every unique L2 block in the trace.

        ``dram`` is the organization the controller maps addresses with:
        the backend's ``effective(dram)``, whose geometry may differ from
        the configured one (the DDR-like backend has fewer banks), so the
        map is keyed by that effective geometry.  Built with one
        vectorized translate over the deduplicated blocks.  The returned
        dict is shared across runs; the fast kernel adds entries for
        prefetch-generated blocks on demand.
        """
        key = _dram_key(dram, l2_block_bytes)
        cached = self._coord_maps.get(key)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._coord_maps.get(key)
            if cached is not None:
                return cached
            blocks = np.unique(self.trace.addrs & ~np.int64(l2_block_bytes - 1))
            banks, rows, _ = make_mapping(dram).translate_arrays(blocks)
            cached = dict(
                zip(blocks.tolist(), zip(banks.tolist(), rows.tolist()))
            )
            self._coord_maps[key] = cached
        return cached


# Process-wide memo: compile each trace content once, share across all
# sweep points (and both kernels) touching it.  Keyed by content digest
# with a small FIFO bound; a weak side table short-circuits the digest
# hash for repeat compilations of the *same* Trace object.
_MEMO_LIMIT = 16
_memo: "Dict[str, CompiledTrace]" = {}
_memo_order: list = []
# Trace objects are unhashable (ndarray fields), so the per-object
# shortcut is keyed by id() with a weakref guard against id reuse.
_by_id: "Dict[int, Tuple[weakref.ref, CompiledTrace]]" = {}
_memo_lock = threading.Lock()


def compile_trace(trace: Trace) -> CompiledTrace:
    """Return the process-shared :class:`CompiledTrace` for ``trace``."""
    entry = _by_id.get(id(trace))
    if entry is not None and entry[0]() is trace:
        return entry[1]
    digest = trace_digest(trace)
    with _memo_lock:
        compiled = _memo.get(digest)
        if compiled is None:
            compiled = CompiledTrace(trace, digest)
            _memo[digest] = compiled
            _memo_order.append(digest)
            while len(_memo_order) > _MEMO_LIMIT:
                evicted = _memo_order.pop(0)
                _memo.pop(evicted, None)
        key = id(trace)
        # The table is bound as a default so the callback stays valid
        # during interpreter shutdown, when module globals become None.
        ref = weakref.ref(
            trace, lambda _r, _k=key, _t=_by_id: _t.pop(_k, None)
        )
        _by_id[key] = (ref, compiled)
    return compiled


def clear_compile_cache() -> None:
    """Drop all memoized compilations (tests and memory pressure)."""
    with _memo_lock:
        _memo.clear()
        _memo_order.clear()
        _by_id.clear()
