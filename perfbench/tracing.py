"""Spans for the traced run, recorded from the benchmark's own files.

Nothing here runs unless a traced run asks for it: ``install_*`` wrap a
layer's public entry points (module functions or class methods) in
place, each call becoming one span ``{id, name, start, end, parent,
run, job, thread}``.  Spans stay in memory and are written out once, at
the end of the traced process.  Times come from ``time.monotonic()``,
which is one clock for every process on the host.

A layer's self time is its spans' duration minus the part covered by
their child spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run: str = "run") -> None:
        #: label stamped on every span opened from now on.
        self.run = run
        self.spans: List[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span; it inherits its parent's ``job`` id, and the
        caller may set ``record["job"]`` once the id is known."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "run": self.run,
            "job": parent["job"] if parent else None,
            "thread": threading.get_ident(),
            "start": time.monotonic(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        except BaseException:
            record["error"] = True
            raise
        finally:
            record["end"] = time.monotonic()
            stack.pop()
            self.spans.append(record)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[[dict, tuple, object], None]] = None,
        skip_inside: Iterable[str] = (),
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(record, args, result)`` may annotate the span with
        counts.  A call made directly inside a span named in
        ``skip_inside`` is passed through unrecorded (``System.warmup``
        runs the trace through ``System.run``, which is not a
        measured-window run).
        """
        original = getattr(owner, attr)
        static = isinstance(
            inspect.getattr_static(owner, attr), (classmethod, staticmethod)
        )
        skip = frozenset(skip_inside)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["name"] in skip:
                return original(*args, **kwargs)
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
                return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def dump(self, path: str, **extra: object) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


class NullTracer:
    """Stand-in for the untraced run: spans cost one no-op context."""

    run = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        yield {}


def _records(record: dict, args: tuple, _result: object) -> None:
    record["records"] = len(args[1])


def _store_hit(record: dict, _args: tuple, result: object) -> None:
    record["hit"] = result is not None


def install_simulation_layers(tracer: Tracer) -> None:
    """Wrap the layers under ``execute_point``, shared by both callers."""
    import repro.runner.worker as worker
    from repro.core.stats import SimStats
    from repro.core.system import System
    from repro.kernel import batch
    from repro.kernel.compiled import CompiledTrace
    from repro.kernel.fastcore import FastSystem
    from repro.kernel.store import TraceStore
    from repro.runner.cache import ResultCache

    tracer.wrap(worker, "build_trace", "workloads.build")
    tracer.wrap(worker, "build_warmup_trace", "workloads.build")
    tracer.wrap(TraceStore, "load", "kernel.store.load", after=_store_hit)
    tracer.wrap(TraceStore, "save", "kernel.store.save")
    tracer.wrap(batch, "compile_trace", "kernel.compile")
    for method in ("base_columns", "l1_columns", "coord_map"):
        tracer.wrap(CompiledTrace, method, "kernel.compile")
    for kernel in (System, FastSystem):
        tracer.wrap(kernel, "warmup", "sim.warmup", after=_records)
        tracer.wrap(
            kernel, "run", f"sim.measure.{kernel.__name__}",
            after=_records, skip_inside=("sim.warmup",),
        )
    tracer.wrap(SimStats, "to_dict", "stats.codec")
    tracer.wrap(SimStats, "from_dict", "stats.codec")
    tracer.wrap(ResultCache, "put", "runner.result_write")


def install_sweep_layers(tracer: Tracer) -> None:
    """Layers of a ``Runner.run_points`` sweep."""
    import repro.runner.runner as runner

    install_simulation_layers(tracer)
    tracer.wrap(runner.Runner, "run_points", "runner.run_points")
    tracer.wrap(runner, "execute_point", "runner.execute_point")


def install_server_layers(tracer: Tracer) -> None:
    """Layers of the service process (simulations run in its threads)."""
    import repro.service.engine as engine

    install_simulation_layers(tracer)
    tracer.wrap(engine, "execute_point", "runner.execute_point")
    tracer.wrap(engine, "parse_sweep_request", "service.parse")


# -- analysis --------------------------------------------------------------


def model_counts(results: Iterable[object]) -> Dict[str, float]:
    """Simulated-event totals over returned ``SimStats``.

    They are the denominators of host time per simulated event: a change
    that only speeds up the simulator leaves every one of them identical.
    """
    from repro.core.stats import merge_stats

    total = merge_stats(list(results))
    return {
        "cpu.instructions": total.instructions,
        "cache.l2_misses": total.l2.misses,
        "dram.accesses": total.dram_accesses,
        "dram.row_hit_rate": total.overall_row_hit_rate,
        "prefetch.issued": total.prefetches_issued,
        "prefetch.accuracy": total.prefetch_accuracy,
    }


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: (span["end"] - span["start"]) - covered[span["id"]]
        for span in spans
    }


def by_layer(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total duration and total self time."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0}
    )
    for span in spans:
        entry = out[span["name"]]
        entry["calls"] += 1
        entry["total"] += span["end"] - span["start"]
        entry["self"] += own[span["id"]]
    return dict(out)


def uncovered(spans: List[dict], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` that no top-level span covers."""
    tops = sorted(
        (max(s["start"], start), min(s["end"], end))
        for s in spans
        if s["parent"] is None and s["end"] > start and s["start"] < end
    )
    covered, reach = 0.0, start
    for lo, hi in tops:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered
