"""Parallel, cached, fault-tolerant experiment runner.

See :mod:`repro.runner.runner` for the execution model — the one
execution core, which the simulation service also resolves its points
through — :mod:`repro.runner.cache` for the result store both engines
share, :mod:`repro.runner.pool` for the worker pool and attempt loop
both engines simulate through, and :mod:`repro.runner.faults` for the
deterministic fault-injection harness that exercises the recovery
paths.  Only a pooled batch imports :mod:`repro.runner.pool` (and with
it :mod:`asyncio`), so it is not imported here.
"""

from repro.runner.cache import ResultCache, ResultStore
from repro.runner.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    get_fault_plan,
    set_fault_plan,
)
from repro.runner.runner import (
    RESULT_VERSION,
    FailureRecord,
    PointFailureError,
    PointRun,
    Runner,
    SimPoint,
    get_runner,
    placeholder_stats,
    set_runner,
)

__all__ = [
    "RESULT_VERSION",
    "FailureRecord",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "PointFailureError",
    "PointRun",
    "ResultCache",
    "ResultStore",
    "Runner",
    "SimPoint",
    "get_fault_plan",
    "get_runner",
    "placeholder_stats",
    "set_fault_plan",
    "set_runner",
]
