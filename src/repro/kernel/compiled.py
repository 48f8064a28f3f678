"""Precompiled trace columns for one simulation point.

A :class:`CompiledTrace` wraps an immutable :class:`~repro.cpu.trace.Trace`
and converts its numpy columns into plain Python lists once
(``ndarray.__getitem__`` in a tight loop is several times slower than
list iteration, so the fast kernel walks lists).  Nothing is kept
across calls, so a compilation is freed with the point that built it.

:meth:`CompiledTrace.l1_columns` and :meth:`CompiledTrace.coord_map`
are vectorized views of the per-record L1 and DRAM arithmetic.  The
fast kernel derives L1 blocks and sets inline from each address and
translates DRAM coordinates on first use into a per-point memo instead;
the views stay as public entry points (``perfbench/tracing.py`` wraps
them by name) and as vectorized cross-checks of that arithmetic in the
tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cache.hierarchy import AccessKind
from repro.core.config import CacheConfig, DRAMConfig
from repro.cpu.trace import Trace
from repro.dram.mapping import make_mapping

__all__ = ["CompiledTrace", "compile_trace"]


class CompiledTrace:
    """List views of one trace; :meth:`base_columns` is built once per
    instance and must be treated as immutable by consumers."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._base_columns: Optional[Tuple[list, ...]] = None

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
        No kernel reads this view (see the module docstring).
        """
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
        return blocks.tolist(), sets.tolist()

    def coord_map(self, dram: DRAMConfig, l2_block_bytes: int) -> dict:
        """``l2_block -> (bank, row)`` for every unique L2 block in the trace.

        ``dram`` is the organization the controller maps addresses with:
        the backend's ``effective(dram)``, whose geometry may differ from
        the configured one (the DDR-like backend has fewer banks).  Built
        with one vectorized translate over the deduplicated blocks.  No
        kernel reads this view (see the module docstring).
        """
        blocks = np.unique(self.trace.addrs & ~np.int64(l2_block_bytes - 1))
        banks, rows, _ = make_mapping(dram).translate_arrays(blocks)
        return dict(zip(blocks.tolist(), zip(banks.tolist(), rows.tolist())))


def compile_trace(trace: Trace) -> CompiledTrace:
    """A fresh :class:`CompiledTrace` for ``trace`` (nothing is memoized)."""
    return CompiledTrace(trace)
