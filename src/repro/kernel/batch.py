"""One point on the specialized kernel.

``simulate_fast`` runs one point on the specialized interpreter in
:mod:`repro.kernel.fastcore`; it is what :func:`repro.core.system.simulate`
calls for every point the kernel rule (``use_fast_kernel``) sends there.
It compiles each trace through the module-level ``compile_trace``,
which ``perfbench/tracing.py`` wraps by this module's name to time
compilation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.cpu.trace import Trace
from repro.kernel.compiled import compile_trace
from repro.kernel.fastcore import FastSystem

__all__ = ["simulate_fast"]


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
