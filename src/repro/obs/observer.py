"""The observer probe, and the multi-point session.

:class:`Observer` is a probe (:mod:`repro.core.probe`): the simulator's
components report domain events to it — a cache fill, an MSHR stall, a
DRAM access, a prefetch-queue change — and it alone decides how they
are presented.  Every Chrome-trace name, track id, histogram name and
timeline series lives here, in the event handlers below; the components
know none of them.  Handlers only *read* the simulator state they are
handed, which is what keeps ``SimStats`` byte-identical with
observability on and off (the golden A/B test asserts exactly that).

An :class:`Observer` owns three sinks:

* ``trace`` — an optional :class:`~repro.obs.trace.TraceWriter`
  collecting Chrome trace events (``None`` when only metrics are on);
* ``hists`` — lazily created
  :class:`~repro.obs.hist.LatencyHistogram` instances keyed by metric
  name (``dram_queue_wait.demand``, ``l2_miss_latency.demand``, ...);
* ``timeline`` — a :class:`~repro.obs.timeline.Timeline` of windowed
  series (channel utilization, row hit rate, prefetch-queue depth).

An :class:`ObsSession` aggregates observers across the simulation
points of one CLI invocation: each point gets its own trace process
(``pid``) and metrics entry, committed only when the point's
simulation attempt succeeds (a retried attempt's partial events are
discarded), and ``close()`` writes the combined trace file and the
metrics file whose per-point histograms fold into a merged aggregate
the same way :func:`repro.core.stats.merge_stats` folds counters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.cache.hierarchy import AccessKind
from repro.core.probe import Probe
from repro.dram.channel import AccessOutcome
from repro.obs.hist import LatencyHistogram
from repro.obs.timeline import DEFAULT_WINDOW_CYCLES, Timeline
from repro.obs.trace import TraceWriter

__all__ = ["Observer", "ObsSession", "merge_histograms"]


class Observer(Probe):
    """Per-simulation event/metric collector (see the module docstring)."""

    #: trace track (thread) ids; see :data:`repro.obs.trace.TRACK_NAMES`.
    DEMAND = 1
    WRITEBACK = 2
    PREFETCH = 3
    DRAM = 4
    CACHE = 5
    MSHR = 6

    __slots__ = ("label", "trace", "hists", "timeline", "_restore")

    def __init__(
        self,
        label: str = "sim",
        pid: int = 1,
        trace: bool = True,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
    ) -> None:
        self.label = label
        self.trace: Optional[TraceWriter] = TraceWriter(pid=pid, label=label) if trace else None
        self.hists: Dict[str, LatencyHistogram] = {}
        self.timeline = Timeline(window_cycles)
        self._restore = None

    # -- muting --------------------------------------------------------------

    def mute(self) -> None:
        """Silence all sinks until :meth:`unmute`.

        Used around cache warm-up: the warm-up pass exists only to reach
        steady state and its events would dwarf the measured window (it
        is an L2-capacity's worth of misses).  Swapping the sinks out —
        rather than flagging every handler — keeps the handlers
        check-free, including direct ``timeline`` accesses.
        """
        if self._restore is not None:
            return
        self._restore = (self.trace, self.hists, self.timeline)
        self.trace = None
        self.hists = {}
        self.timeline = Timeline(self.timeline.window_cycles)

    def unmute(self) -> None:
        if self._restore is None:
            return
        self.trace, self.hists, self.timeline = self._restore
        self._restore = None

    # -- trace primitives (no-ops when tracing is off) -----------------------

    def instant(
        self, name: str, ts: float, tid: int, args: Optional[Dict[str, object]] = None
    ) -> None:
        if self.trace is not None:
            self.trace.instant(name, ts, tid, args)

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        tid: int,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.trace is not None:
            self.trace.complete(name, ts, dur, tid, args)

    def span(
        self,
        name: str,
        ts0: float,
        ts1: float,
        tid: int,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Emit a closed async lifecycle span covering ``[ts0, ts1]``."""
        if self.trace is not None:
            span_id = self.trace.next_id()
            self.trace.begin(name, ts0, tid, span_id, args)
            self.trace.end(name, ts1, tid, span_id)

    # -- histograms ----------------------------------------------------------

    def record(self, name: str, value: float) -> None:
        """Add one sample to the named latency histogram."""
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = LatencyHistogram()
        hist.record(value)

    # -- probe events (see repro.core.probe) ----------------------------------

    warmup_begin = mute
    warmup_end = unmute

    def cache_fill(self, level, index, line, victim) -> None:
        ts = line.ready_time
        self.instant(
            f"{level}-fill", ts, self.CACHE, {"addr": line.addr, "prefetched": line.prefetched}
        )
        if victim is not None:
            self.instant(f"{level}-evict", ts, self.CACHE, {"addr": victim.addr})
            if victim.prefetched:
                self.instant("prefetch-evicted-unused", ts, self.PREFETCH, {"addr": victim.addr})

    def l1_access(self, time, addr, kind, line) -> None:
        level = "l1i" if kind == AccessKind.IFETCH else "l1d"
        if line is None:
            args = {"addr": addr, "kind": AccessKind.NAMES[kind]}
            self.instant(f"{level}-miss", time, self.CACHE, args)
        elif line.ready_time > time:
            # A hit on an in-flight fill: the MSHR-style merge.
            self.instant(f"{level}-mshr-merge", time, self.MSHR, {"addr": addr})
        else:
            self.instant(f"{level}-hit", time, self.CACHE, {"addr": addr})

    def l2_hit(self, time, addr, line, prefetched) -> None:
        self.instant("l2-hit", time, self.CACHE, {"addr": addr})
        if prefetched:
            self.instant("prefetch-first-use", time, self.PREFETCH, {"addr": line.addr})
            if line.ready_time > time:
                self.instant("prefetch-late", time, self.PREFETCH, {"addr": addr})

    def l2_miss(self, time, addr) -> None:
        self.instant("l2-miss", time, self.CACHE, {"addr": addr})

    def mshr_acquire(self, level, now, granted, outstanding, capacity) -> None:
        if granted > now:
            args = {"until": granted, "outstanding": capacity}
            self.instant(f"{level}-mshr-stall", now, self.MSHR, args)

    def mshr_commit(self, level, granted, completion, addr, outstanding, capacity) -> None:
        self.span(f"{level}-mshr", granted, completion, self.MSHR, {"addr": addr})

    def dram_access(
        self, channel, time, bank, row, outcome, cls_name, prer_start, act_start,
        flushed, packets, completion,
    ) -> None:
        args = {"class": cls_name, "bank": bank, "row": row, "outcome": outcome}
        self.instant("dram-enqueue", time, self.DRAM, args)
        self.timeline.add("dram_accesses", time)
        # Queue wait runs from arrival to the request's own first command
        # (the first RD/WR on a row hit, else the ACT, or the PRER on a
        # conflict); service from that command to the last data packet.
        if outcome == AccessOutcome.ROW_HIT:
            self.instant("row-hit", time, self.DRAM, {"bank": bank, "row": row})
            self.timeline.add("dram_row_hits", time)
            service_start = packets[0][0]
        else:
            args = {"bank": bank, "row": row, "class": cls_name}
            self.instant("row-activate", act_start, self.DRAM, args)
            for neighbour in flushed:
                args = {"bank": neighbour, "activated_bank": bank}
                self.instant("row-flushed-by-neighbour", act_start, self.DRAM, args)
            service_start = act_start if prer_start is None else prer_start
        t_transfer = channel.t_transfer
        for cmd_start, data_end in packets:
            self.instant("column-access", cmd_start, self.DRAM, {"bank": bank})
            burst_start = data_end - t_transfer
            args = {"bank": bank, "class": cls_name}
            self.complete("data-burst", burst_start, t_transfer, self.DRAM, args)
            self.timeline.add("data_bus_busy", burst_start, t_transfer)
        self.record(f"dram_queue_wait.{cls_name}", service_start - time)
        self.record(f"dram_service.{cls_name}", completion - service_start)

    def dram_demand(self, time, completion, addr) -> None:
        self.span("dram-demand", time, completion, self.DEMAND, {"addr": addr})
        # Every demand fetch is an L2 miss arriving at ``time``.
        self.record("l2_miss_latency.demand", completion - time)

    def dram_writeback(self, time, completion, addr) -> None:
        self.span("dram-writeback", time, completion, self.WRITEBACK, {"addr": addr})

    def dram_prefetch(self, time, completion, addr, depth) -> None:
        # The span is the prefetch's issue→fill lifetime; the fill
        # instant marks when the block lands in the L2.
        self.span("prefetch-inflight", time, completion, self.PREFETCH, {"addr": addr})
        self.instant("prefetch-fill", completion, self.PREFETCH, {"addr": addr})
        self.timeline.high_water("prefetch_queue_depth", time, float(depth))

    def prefetch_trained(self, time, depth) -> None:
        self.timeline.high_water("prefetch_queue_depth", time, float(depth))

    def region_enqueue(self, now, queue, entry, victim) -> None:
        self.instant("prefetch-region-enqueue", now, self.PREFETCH, {"base": entry.base})
        if victim is not None:
            self.instant("prefetch-region-replace", now, self.PREFETCH, {"base": victim.base})

    def region_promote(self, now, queue, entry) -> None:
        self.instant("prefetch-region-promote", now, self.PREFETCH, {"base": entry.base})

    def region_retire(self, now, queue, entry) -> None:
        self.instant("prefetch-region-retire", now, self.PREFETCH, {"base": entry.base})

    def stride_enqueue(self, now, pc, stride, queue) -> None:
        self.instant("prefetch-stride-enqueue", now, self.PREFETCH, {"pc": pc, "stride": stride})

    # -- export --------------------------------------------------------------

    def metrics_dict(self) -> Dict[str, object]:
        """Plain-data metrics for this point (exact histogram round trip)."""
        return {
            "label": self.label,
            "histograms": {name: h.to_dict() for name, h in sorted(self.hists.items())},
            "histogram_summary": {
                name: h.summary() for name, h in sorted(self.hists.items())
            },
            "timeline": self.timeline.to_dict(),
        }

    def write_trace(self, path: Union[str, Path]) -> Path:
        """Write this observer's events as a standalone trace file."""
        if self.trace is None:
            raise ValueError("tracing is disabled on this observer")
        return self.trace.write(path)


def merge_histograms(
    per_point: List[Mapping[str, Mapping[str, object]]]
) -> Dict[str, LatencyHistogram]:
    """Fold per-point histogram dicts into one histogram per metric.

    The input entries are ``{metric name: histogram.to_dict()}``
    mappings (exactly what the metrics file stores per point), so
    aggregation over cached/partial metrics files works the same way
    ``merge_stats`` folds :class:`~repro.core.stats.SimStats`.
    """
    merged: Dict[str, LatencyHistogram] = {}
    for histograms in per_point:
        for name, data in histograms.items():
            hist = LatencyHistogram.from_dict(data)
            if name in merged:
                merged[name].merge(hist)
            else:
                merged[name] = hist
    return merged


class ObsSession:
    """Trace/metrics collection across the points of one CLI run."""

    def __init__(
        self,
        trace_path: Optional[Union[str, Path]] = None,
        metrics_path: Optional[Union[str, Path]] = None,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        trace_id: Optional[str] = None,
    ) -> None:
        if trace_path is None and metrics_path is None:
            raise ValueError("an ObsSession needs a trace path, a metrics path, or both")
        self.trace_path = Path(trace_path) if trace_path else None
        self.metrics_path = Path(metrics_path) if metrics_path else None
        self.window_cycles = window_cycles
        #: correlation id stamped on every committed point entry and the
        #: metrics payload, so a slow point found in a run log or a
        #: service journal can be matched to its obs artifacts.
        self.trace_id = trace_id
        self._next_pid = 0
        self._events: List[Dict[str, object]] = []
        self._points: List[Dict[str, object]] = []

    def begin_point(self, label: str) -> Observer:
        """Fresh observer for one simulation attempt."""
        self._next_pid += 1
        return Observer(
            label=label,
            pid=self._next_pid,
            trace=self.trace_path is not None,
            window_cycles=self.window_cycles,
        )

    def commit_point(self, obs: Observer, key: Optional[str] = None) -> None:
        """The attempt succeeded: keep its events and metrics.

        An aborted attempt is simply never committed, so a retry cannot
        leave a half-simulated point's events in the trace.
        """
        if obs.trace is not None:
            self._events.extend(obs.trace.events)
        entry = obs.metrics_dict()
        if key is not None:
            entry["key"] = key
        if self.trace_id is not None:
            entry["trace_id"] = self.trace_id
        self._points.append(entry)

    def close(self) -> List[Path]:
        """Write the requested output files; returns the paths written."""
        import json

        written: List[Path] = []
        if self.trace_path is not None:
            payload = {"traceEvents": self._events, "displayTimeUnit": "ms"}
            self.trace_path.write_text(json.dumps(payload) + "\n")
            written.append(self.trace_path)
        if self.metrics_path is not None:
            merged = merge_histograms(
                [point.get("histograms", {}) for point in self._points]
            )
            payload: Dict[str, object] = {
                "window_cycles": self.window_cycles,
                "points": self._points,
                "merged_histograms": {
                    name: hist.to_dict() for name, hist in sorted(merged.items())
                },
                "merged_histogram_summary": {
                    name: hist.summary() for name, hist in sorted(merged.items())
                },
            }
            if self.trace_id is not None:
                payload["trace_id"] = self.trace_id
            self.metrics_path.write_text(json.dumps(payload, indent=1) + "\n")
            written.append(self.metrics_path)
        return written
