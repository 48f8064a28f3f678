"""Precompiled and specialized simulation kernels.

This package is the performance layer over the reference simulator:

* :mod:`repro.kernel.fastcore` — the specialized interpreter that runs
  every point neither observed nor sanitized, byte-identical to the
  reference kernel on every registered DRAM backend and L1 geometry
  (it drives each backend's own geometry, timings and row-timing
  policy); its caches are block columns (per-set recency lists of
  block numbers, a ready-time dict and dirty/prefetched block sets),
  with no object per cache line; the only state that outlives a point
  is the snapshot of the machine after the warm-up's shared prefix,
  which the next point of the same configuration restores instead of
  simulating again;
* :mod:`repro.kernel.memo` — that snapshot memo: a byte-bounded LRU
  of compact post-prefix machine states, the caches as flat
  ``array``/``bytes`` columns;
* :mod:`repro.kernel.compiled` — a trace's columns as plain lists,
  from the first record a run simulates;
* :mod:`repro.kernel.batch` — ``simulate_fast``, one point on the
  fast kernel;
* :mod:`repro.kernel.store` — the content-addressed on-disk trace
  store beside the result cache (or at ``REPRO_TRACE_STORE``) that
  shares built measured traces across worker processes.

The pure-Python reference kernel (``repro.cpu.core`` and friends)
remains authoritative: the fast kernel must match it byte for byte.
It runs every observed or sanitized point (the fast kernel emits no
probe events) and every call passing ``fast=False``, the handle the
A/B tests use; ``use_fast_kernel`` is that rule.
"""

from repro.kernel.batch import simulate_fast
from repro.kernel.compiled import CompiledTrace, compile_trace
from repro.kernel.fastcore import FastSystem, use_fast_kernel
from repro.kernel.store import TraceStore, trace_store

__all__ = [
    "CompiledTrace",
    "FastSystem",
    "TraceStore",
    "compile_trace",
    "simulate_fast",
    "trace_store",
    "use_fast_kernel",
]
