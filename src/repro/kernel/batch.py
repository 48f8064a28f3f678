"""One point, or several configs over one shared compiled trace.

``simulate_fast`` runs one point on the specialized interpreter in
:mod:`repro.kernel.fastcore`; it is what :func:`repro.core.system.simulate`
calls for every point the kernel rule (``use_fast_kernel``) sends there.

``simulate_batch`` steps several configuration variants over a single
:class:`CompiledTrace`: the trace's list conversion is built once per
call and shared by every point, so the per-config cost is the
simulation proper.  Each point runs the fast kernel unless the rule
sends it to the reference ``System`` (fed the same precompiled
columns).  Either way the results are byte-identical to independent
``simulate`` calls — enforced by the singleton-equivalence property
test in ``tests/test_kernel_ab.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.core.system import System
from repro.cpu.trace import Trace
from repro.kernel.compiled import CompiledTrace, compile_trace
from repro.kernel.fastcore import FastSystem, use_fast_kernel

__all__ = ["simulate_batch", "simulate_fast"]


def simulate_fast(
    trace: Trace,
    config: SystemConfig,
    warmup_trace: Optional[Trace] = None,
) -> SimStats:
    """Run one point on the specialized kernel."""
    system = FastSystem(config)
    if warmup_trace is not None:
        system.warmup(compile_trace(warmup_trace))
    return system.run(compile_trace(trace))


def simulate_batch(
    trace: Trace,
    configs: Sequence[SystemConfig],
    warmup_trace: Optional[Trace] = None,
    warmup_traces: Optional[Sequence[Optional[Trace]]] = None,
    obs=None,
    sanitize=None,
    fast: bool = True,
) -> List[SimStats]:
    """Simulate ``trace`` under each config; returns one stats per config.

    ``warmup_trace`` warms every point with the same trace;
    ``warmup_traces`` supplies one per config (entries may be None) for
    sweeps whose warm-up depends on the config, e.g. on the L2 size.
    ``obs``/``sanitize`` apply to every point, and each point takes the
    kernel :func:`~repro.kernel.fastcore.use_fast_kernel` picks, the rule
    :func:`repro.core.system.simulate` applies.  Statistics are
    byte-identical to N independent ``simulate`` calls in every mode.
    """
    if warmup_traces is not None:
        if warmup_trace is not None:
            raise ValueError("pass warmup_trace or warmup_traces, not both")
        if len(warmup_traces) != len(configs):
            raise ValueError(
                f"warmup_traces has {len(warmup_traces)} entries "
                f"for {len(configs)} configs"
            )

    compiled = compile_trace(trace)
    warm_cache: dict = {}

    def compiled_warmup(warm: Optional[Trace]) -> Optional[CompiledTrace]:
        if warm is None:
            return None
        cached = warm_cache.get(id(warm))
        if cached is None:
            cached = compile_trace(warm)
            warm_cache[id(warm)] = cached
        return cached

    fast_kernel = use_fast_kernel(fast, obs, sanitize)
    results: List[SimStats] = []
    for i, config in enumerate(configs):
        warm = warmup_traces[i] if warmup_traces is not None else warmup_trace
        if fast_kernel:
            system = FastSystem(config)
            warm_compiled = compiled_warmup(warm)
            if warm_compiled is not None:
                system.warmup(warm_compiled)
            results.append(system.run(compiled))
            continue
        reference = System(config, obs=obs, sanitize=sanitize)
        if warm is not None:
            warm_compiled = compiled_warmup(warm)
            reference.warmup(warm, columns=warm_compiled.base_columns())
        results.append(reference.run(trace, columns=compiled.base_columns()))
    return results
