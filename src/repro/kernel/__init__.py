"""Batched, precompiled, and specialized simulation kernels.

This package is the performance layer over the reference simulator:

* :mod:`repro.kernel.compiled` — content-digested, process-memoized
  derived trace columns (list views, cache set indices, DRAM
  coordinates) shared by every sweep point touching a trace;
* :mod:`repro.kernel.fastcore` — the ``REPRO_FAST`` opt-in specialized
  interpreter, byte-identical to the reference kernel on every
  registered DRAM backend (it drives each backend's own geometry,
  timings and row-timing policy);
* :mod:`repro.kernel.batch` — ``simulate_batch`` for multi-config
  sweeps over one shared compiled trace;
* :mod:`repro.kernel.store` — the content-addressed on-disk trace
  store (``REPRO_TRACE_STORE``) that shares built traces across
  worker processes.

The pure-Python reference kernel (``repro.cpu.core`` and friends)
remains authoritative: the fast path must match it byte for byte and
falls back to it whenever observability, sanitizing, or an
unspecialized L1 geometry is involved (``use_fast_kernel`` is that
rule).
"""

from repro.kernel.batch import simulate_batch, simulate_fast
from repro.kernel.compiled import (
    CompiledTrace,
    clear_compile_cache,
    compile_trace,
    trace_digest,
)
from repro.kernel.fastcore import (
    FastSystem,
    clear_warm_cache,
    fast_enabled,
    kernel_supports,
    use_fast_kernel,
)
from repro.kernel.store import TraceStore, trace_store_from_env

__all__ = [
    "CompiledTrace",
    "FastSystem",
    "TraceStore",
    "clear_compile_cache",
    "clear_warm_cache",
    "compile_trace",
    "fast_enabled",
    "kernel_supports",
    "simulate_batch",
    "simulate_fast",
    "trace_digest",
    "trace_store_from_env",
    "use_fast_kernel",
]
