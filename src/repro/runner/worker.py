"""Simulation of one point, runnable in the parent or a pool worker.

:func:`execute_point` is a module-level function so
``ProcessPoolExecutor`` can pickle it by reference; a ``SimPoint`` is a
tree of frozen dataclasses of primitives, so it crosses the process
boundary unchanged.  The returned statistics travel as the plain-data
form of :class:`~repro.core.stats.SimStats` — the same representation
the on-disk cache stores — so every execution path (inline, pooled,
cached) materializes results through one exact round trip.

Trace construction costs a sizable fraction of simulating the trace, so
it is amortized at two levels: each process memoizes the most recent
traces (the parent's memo also backs
:func:`repro.experiments.common.get_traces`), and a content-addressed
store beside the result cache (:mod:`repro.kernel.store`) shares built
measured traces across worker processes and runner invocations (the
warm-up trace is vectorized and cheaper to build than to load).

Every pool worker, the runner's and the service's alike, runs
:func:`exit_with_parent` when it starts (:mod:`repro.runner.pool`).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Dict, Optional, Tuple

from repro.core.system import simulate
from repro.cpu.trace import Trace
from repro.kernel.store import trace_store
from repro.runner import faults
from repro.workloads import build_trace
from repro.workloads.registry import build_warmup_trace

__all__ = ["execute_point", "exit_with_parent", "get_traces"]

_TRACE_MEMO: Dict[Tuple[str, int, int, int], Tuple[Trace, Trace]] = {}
_TRACE_MEMO_LIMIT = 8
#: callers on several threads of one process must share one build of a
#: key, and evictions must not race.
_TRACE_MEMO_LOCK = threading.Lock()


def _build_traces(
    benchmark: str, memory_refs: int, seed: int, l2_bytes: int, cache_dir=None
) -> Tuple[Trace, Trace]:
    """Construct (warm, main).  The vectorized warm-up trace is always
    built; the measured trace goes through the on-disk store of
    ``cache_dir`` when there is one (:func:`repro.kernel.store.trace_store`):
    first process on the machine builds and publishes, the rest load.
    Store failures silently fall back to building."""
    warm = build_warmup_trace(benchmark, seed=seed, l2_bytes=l2_bytes)
    store = trace_store(cache_dir)
    if store is None:
        return warm, build_trace(benchmark, memory_refs, seed=seed)
    key = store.recipe_key(benchmark, memory_refs, seed)
    main = store.load(key)
    if main is None:
        main = build_trace(benchmark, memory_refs, seed=seed)
        store.save(key, main)
    return warm, main


def get_traces(
    benchmark: str,
    memory_refs: int,
    seed: int,
    l2_bytes: int,
    cache_dir=None,
) -> Tuple[Optional[Trace], Trace]:
    """(warm-up initialization trace, measured trace) for one benchmark;
    the measured trace's build goes through the trace store of
    ``cache_dir``."""
    key = (benchmark, memory_refs, seed, l2_bytes)
    with _TRACE_MEMO_LOCK:
        traces = _TRACE_MEMO.get(key)
        if traces is None:
            if len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
                _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
            traces = _TRACE_MEMO[key] = _build_traces(
                benchmark, memory_refs, seed, l2_bytes, cache_dir
            )
    warm, main = traces
    return (warm if len(warm) else None), main


def exit_with_parent() -> None:
    """End this pool worker when the process that started it dies.

    A parent killed outright (SIGKILL, the OOM killer) cannot kill its
    pool, and an orphaned worker would wait for work forever.
    """
    threading.Thread(target=_exit_on_parent_death, daemon=True).start()


def _exit_on_parent_death() -> None:
    multiprocessing.parent_process().join()
    os._exit(1)


def execute_point(
    point,
    attempt: int = 0,
    obs=None,
    sanitize: bool = False,
    fast: bool = True,
    cache_dir=None,
) -> Tuple[Dict[str, object], float]:
    """Simulate one :class:`~repro.runner.runner.SimPoint` from scratch.

    Returns ``(stats_dict, wall_seconds)``.  Fully deterministic: the
    trace is rebuilt from the point's seed and the system starts cold,
    so the same point produces identical statistics in any process.

    ``attempt`` is the zero-based retry attempt the runner is making;
    it does not influence the simulation (results must be identical on
    every attempt) and exists only so the fault-injection harness can
    key planned failures by attempt number.

    ``obs`` is an optional :class:`~repro.obs.observer.Observer`
    collecting trace events and latency histograms; observability never
    changes the statistics (the A/B golden test asserts it), so cached
    and observed runs stay interchangeable.  Observed execution is
    inline-only — an Observer does not cross the process boundary.

    ``sanitize`` runs the point under the runtime invariant checker
    (:mod:`repro.sanitize`); like observability it never changes the
    statistics, and being a plain bool it *does* cross the process
    boundary, so sanitized runs work in the pool.  A violated invariant
    raises :class:`~repro.sanitize.SanitizerError`, which pickles with
    its cycle/component/event context intact.

    The point runs on the specialized kernel (:mod:`repro.kernel`)
    unless it is observed or sanitized, or ``fast`` is False: those
    run the reference kernel.  :func:`repro.core.system.simulate` makes
    the choice, and the statistics are byte-identical either way.

    ``cache_dir`` is the calling runner's result cache: traces built
    here go to the trace store beside it (none without one).
    """
    faults.maybe_inject(point.label(), attempt)
    started = time.perf_counter()
    warm, main = get_traces(
        point.benchmark,
        point.memory_refs,
        point.seed,
        point.config.l2.size_bytes,
        cache_dir,
    )
    stats = simulate(
        main, point.config, warmup_trace=warm, obs=obs, sanitize=sanitize, fast=fast
    )
    return stats.to_dict(), time.perf_counter() - started
