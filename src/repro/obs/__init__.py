"""repro.obs — opt-in, zero-overhead-when-off observability.

The paper's mechanisms live in distributions and timelines — prefetch
row-hit rates near 100%, demand misses bypassing queued prefetches,
bounded pollution — which the scalar counters in
:class:`repro.core.stats.SimStats` can only average away.  This package
makes them visible without perturbing the simulation:

* :mod:`repro.obs.trace` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) of demand, writeback, and prefetch lifecycles
  plus DRAM command-level events, and the schema validator;
* :mod:`repro.obs.hist` — power-of-two latency histograms with
  p50/p95/p99 accessors and exact merge/round-trip;
* :mod:`repro.obs.timeline` — windowed channel-utilization, row-hit
  rate, and prefetch-queue-depth series;
* :mod:`repro.obs.observer` — the :class:`Observer` probe that turns
  the simulator's events into all of the above (no probe by default:
  the disabled path costs one falsy check per event site) and the
  :class:`ObsSession` that aggregates a CLI run;
* :mod:`repro.obs.log` — the leveled stderr logger
  (``REPRO_LOG_LEVEL``) and the JSON-lines sink behind the runner's
  structured run log;
* :mod:`repro.obs.metrics` — the counter/gauge/histogram registry with
  Prometheus text exposition (``GET /metrics`` on the service) and the
  exposition-format validator.

Quickstart::

    from repro import System, SystemConfig
    from repro.obs import Observer
    from repro.workloads import build_trace

    obs = Observer(label="swim")
    stats = System(SystemConfig().with_prefetch(enabled=True), obs=obs).run(
        build_trace("swim", memory_refs=10_000)
    )
    obs.write_trace("swim-trace.json")      # open in https://ui.perfetto.dev
    print(obs.hists["dram_queue_wait.demand"].summary())
"""

from repro.obs.hist import LatencyHistogram
from repro.obs.log import JsonlSink, Logger, get_logger
from repro.obs.metrics import MetricsRegistry, render_prometheus, validate_exposition
from repro.obs.observer import Observer, ObsSession, merge_histograms
from repro.obs.timeline import Timeline
from repro.obs.trace import TraceWriter, validate_trace

__all__ = [
    "JsonlSink",
    "LatencyHistogram",
    "Logger",
    "MetricsRegistry",
    "ObsSession",
    "Observer",
    "Timeline",
    "TraceWriter",
    "get_logger",
    "merge_histograms",
    "render_prometheus",
    "validate_exposition",
]
